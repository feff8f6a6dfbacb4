package report

// The scheme layer of the experiment registry: which experiments honour
// Params.Scheme, what an empty scheme resolves to, and the one
// normalization path every front end (daemon, CLIs, sweeps) shares so that
// equivalent scheme selections always reach the result cache as one
// canonical identity.

import (
	"fmt"

	"eccparity/internal/ecc"
)

// SchemeAware reports whether the experiment honours Params.Scheme.
func SchemeAware(id string) bool { return registry[id].defaultScheme != "" }

// DefaultScheme returns what an empty Params.Scheme resolves to for a
// scheme-aware experiment ("" for unknown or scheme-blind ids).
func DefaultScheme(id string) string { return registry[id].defaultScheme }

// NormalizedFor resolves p to the canonical identity the result cache
// hashes for experiment id: the plain Normalized knobs plus canonicalized
// scheme fields. Scheme fields on a scheme-blind experiment are an error;
// on a scheme-aware one the scheme must be in the ecc table (engine-only
// entries only where the experiment is not codec-level), options must
// validate against the scheme's entry, and the explicit default
// selection normalizes to empty fields — so "scheme omitted" and "scheme
// set to the default" are one cache entry, and every pre-scheme-layer
// request keeps its original content-address.
func (p Params) NormalizedFor(id string) (Params, error) {
	sp, ok := registry[id]
	if !ok {
		return Params{}, fmt.Errorf("report: unknown experiment %q", id)
	}
	p = p.Normalized()
	if sp.defaultScheme == "" {
		if p.Scheme != "" || p.SchemeOptions != "" {
			return Params{}, fmt.Errorf("report: experiment %q is not scheme-aware", id)
		}
		return p, nil
	}
	scheme := p.Scheme
	if scheme == "" {
		scheme = sp.defaultScheme
	}
	if e, ok := ecc.Info(scheme); ok && e.EngineOnly && sp.codecLevel {
		return Params{}, fmt.Errorf("report: experiment %q is codec-level: engine-only scheme %q has no codeword path", id, scheme)
	}
	canon, err := ecc.CanonicalOptions(scheme, []byte(p.SchemeOptions))
	if err != nil {
		return Params{}, fmt.Errorf("report: experiment %q: %w", id, err)
	}
	if scheme == sp.defaultScheme && canon == "" {
		p.Scheme, p.SchemeOptions = "", ""
	} else {
		p.Scheme, p.SchemeOptions = scheme, canon
	}
	return p, nil
}

// schemeFor resolves the Runner's effective (scheme, canonical options),
// falling back to the experiment's default. The default is passed in
// rather than read from the registry so renderer functions stay free of
// initialization cycles with the registry literal.
func (r *Runner) schemeFor(defaultScheme string) (scheme, options string) {
	scheme = r.p.Scheme
	if scheme == "" {
		scheme = defaultScheme
	}
	return scheme, r.p.SchemeOptions
}
