package serve

// Scheme-layer API tests: the /v1/schemes listing, scheme-aware submission
// and sweeps, and — most load-bearing — the hash-compatibility pin that
// keeps every pre-scheme-layer request at its original content address.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"eccparity/internal/resultcache"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// TestPreSchemeHashCompat pins content addresses recorded before the scheme
// fields existed. These are external contracts: cached result documents,
// on-disk cache entries and cluster ring placements all key on them, so a
// Params field addition (or a normalization change) that perturbs any of
// these hashes is a breaking change, not a refactor. The submit path must
// map each config — with scheme fields absent OR spelled as the default —
// to exactly these addresses.
func TestPreSchemeHashCompat(t *testing.T) {
	pins := []struct {
		experiment string
		params     report.Params
		want       string
	}{
		{"fig8", report.DefaultParams(), "3a393a4d27284abc11d3f07dab1fa476bbc31879249ad8d3900893c77ccc422f"},
		{"fig8", report.Params{Trials: 40, Seed: 7}, "05a92d4da88ff12fd3b3dcfc8fbad5e7c1494a196bd03f2d03fb99707a3e049d"},
		{"table2", report.DefaultParams(), "1b91b54629df6ae42945cf2aaf1bc21eeac09d5a8deaf92481a7f032805bae77"},
		{"fig10", report.Params{Cycles: 1500, Warmup: 200, Trials: 2, Seed: 1}, "5650f10e0b0e78c09293df05e02224137c7517279566b04108391bc76d1d488e"},
		{"fig9", report.Params{Cycles: 2000, Warmup: 100, Trials: 2, Seed: 3, CSV: true}, "011356a8c1620ee36d9fe942690694b798b6df9b24ef5ead4651340081e7ec1e"},
		{"counters", report.Params{Cycles: 400000, Warmup: 60000, Trials: 2000, Seed: 42}, "eb8736e9e427671a3807068c649b4ea383d494c03a6e59baf32a6e5a13fcdd85"},
	}
	for _, pin := range pins {
		p, err := pin.params.NormalizedFor(pin.experiment)
		if err != nil {
			t.Fatalf("%s: %v", pin.experiment, err)
		}
		key, err := resultcache.Key(canonicalConfig{Experiment: pin.experiment, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if key != pin.want {
			t.Errorf("%s %+v: hash %s, want pinned pre-scheme-layer %s", pin.experiment, pin.params, key, pin.want)
		}
	}
}

// TestSchemesEndpoint: GET /v1/schemes serves the twelve codec-level
// registry entries in key order — never the engine-only overlays — and GET /v1/experiments marks which experiments take a scheme.
func TestSchemesEndpoint(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 1})
	c := api.NewClient(ts.URL)

	schemes, err := c.ListSchemes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chipkill18", "chipkill36", "doublechipkill", "lotecc5", "lotecc5rs", "lotecc9",
		"multiecc", "ondie+chipkill", "ondie+raim18", "ondie-sec", "raim", "raim18"}
	if len(schemes) != len(want) {
		t.Fatalf("got %d schemes, want %d", len(schemes), len(want))
	}
	byKey := map[string]api.SchemeInfo{}
	for i, si := range schemes {
		if si.Key != want[i] {
			t.Errorf("scheme %d = %q, want %q (key order)", i, si.Key, want[i])
		}
		if si.Description == "" {
			t.Errorf("scheme %q: empty description", si.Key)
		}
		byKey[si.Key] = si
	}
	if si := byKey["ondie+chipkill"]; !si.ChipKillCorrect || len(si.Options) != 1 || si.Options[0].Name != "passthrough" {
		t.Errorf("ondie+chipkill entry %+v, want chip-kill-correct with a passthrough option", si)
	}
	if si := byKey["ondie-sec"]; si.ChipKillCorrect {
		t.Errorf("bare on-die rank must not advertise chip-kill correct: %+v", si)
	}

	exps, err := c.Experiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]api.ExperimentInfo{}
	for _, e := range exps {
		byID[e.ID] = e
	}
	if e := byID["faultinject"]; !e.SchemeAware || e.DefaultScheme != "ondie+chipkill" {
		t.Errorf("faultinject listing %+v, want scheme-aware with default ondie+chipkill", e)
	}
	if e := byID["fig8"]; e.SchemeAware || e.DefaultScheme != "" {
		t.Errorf("fig8 listing %+v, want scheme-blind", e)
	}
}

// TestSchemeSubmitEndToEnd runs a composite-scheme experiment through
// submit → poll → fetch, asserts the result document echoes the canonical
// scheme identity, and verifies equivalent spellings of the default
// selection collapse to the scheme-omitted content address.
func TestSchemeSubmitEndToEnd(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 2})

	code, sr := postJSON(t, ts.URL, `{"experiment":"faultinject","trials":8,"seed":5,"scheme":"ondie+raim18"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollDone(t, ts.URL, sr.JobID)
	code, b := getBody(t, ts.URL+"/v1/results/"+sr.ResultHash)
	if code != http.StatusOK {
		t.Fatalf("result fetch: status %d: %s", code, b)
	}
	var doc api.Result
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Params.Scheme != "ondie+raim18" || doc.Params.SchemeOptions != "" {
		t.Errorf("result params %+v, want scheme ondie+raim18", doc.Params)
	}
	if !strings.Contains(doc.Report.Text, "chip-kill") {
		t.Errorf("faultinject text missing the chip-kill pattern row:\n%s", doc.Report.Text)
	}

	// A different scheme is a different content address.
	code, other := postJSON(t, ts.URL, `{"experiment":"faultinject","trials":8,"seed":5,"scheme":"ondie-sec"}`)
	if code != http.StatusAccepted {
		t.Fatalf("ondie-sec submit: status %d", code)
	}
	if other.ResultHash == sr.ResultHash {
		t.Error("distinct schemes must not share a content address")
	}
	pollDone(t, ts.URL, other.JobID)

	// The default scheme, however spelled, is the scheme-omitted identity.
	code, base := postJSON(t, ts.URL, `{"experiment":"faultinject","trials":8,"seed":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("default submit: status %d", code)
	}
	pollDone(t, ts.URL, base.JobID)
	for _, body := range []string{
		`{"experiment":"faultinject","trials":8,"seed":5,"scheme":"ondie+chipkill"}`,
		`{"experiment":"faultinject","trials":8,"seed":5,"scheme":"ondie+chipkill","scheme_options":{}}`,
		`{"experiment":"faultinject","trials":8,"seed":5,"scheme":"ondie+chipkill","scheme_options":{"passthrough":false}}`,
	} {
		code, again := postJSON(t, ts.URL, body)
		if code != http.StatusOK || !again.Cached || again.ResultHash != base.ResultHash {
			t.Errorf("%s: code=%d cached=%v hash=%s, want cache hit on %s",
				body, code, again.Cached, again.ResultHash, base.ResultHash)
		}
	}

	// A non-default option set is its own identity and round-trips in
	// canonical form.
	code, pass := postJSON(t, ts.URL, `{"experiment":"faultinject","trials":8,"seed":5,"scheme_options":{ "passthrough" : true }}`)
	if code != http.StatusAccepted {
		t.Fatalf("passthrough submit: status %d", code)
	}
	if pass.ResultHash == base.ResultHash {
		t.Error("passthrough variant must not share the default's content address")
	}
	pollDone(t, ts.URL, pass.JobID)
	_, pb := getBody(t, ts.URL+"/v1/results/"+pass.ResultHash)
	var pdoc api.Result
	if err := json.Unmarshal(pb, &pdoc); err != nil {
		t.Fatal(err)
	}
	if pdoc.Params.Scheme != "ondie+chipkill" || pdoc.Params.SchemeOptions != `{"passthrough":true}` {
		t.Errorf("passthrough result params %+v, want canonical options", pdoc.Params)
	}
}

// TestSchemeSubmitValidation: scheme mistakes answer 400 with the
// unknown_scheme code, pointing at the listing endpoint.
func TestSchemeSubmitValidation(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 1})
	for name, body := range map[string]string{
		"unknown scheme":           `{"experiment":"faultinject","scheme":"nope"}`,
		"scheme on blind exp":      `{"experiment":"fig8","scheme":"chipkill36"}`,
		"options on blind exp":     `{"experiment":"fig8","scheme_options":{"passthrough":true}}`,
		"unknown option":           `{"experiment":"faultinject","scheme_options":{"bogus":1}}`,
		"options on fixed scheme":  `{"experiment":"faultinject","scheme":"chipkill36","scheme_options":{"passthrough":true}}`,
		"engine-only on codec exp": `{"experiment":"faultinject","scheme":"lotecc5+parity"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeUnknownScheme {
			t.Errorf("%s: status %d code %q, want 400 %q", name, resp.StatusCode, env.Error.Code, api.CodeUnknownScheme)
		}
	}
}

// TestSweepSchemeAxisEndToEnd runs one grid across three schemes, checks
// the default folds into the scheme-omitted identity (cache hit against a
// prior plain submission), and that per-point results are scheme-labeled.
func TestSweepSchemeAxisEndToEnd(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 2})
	c := api.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Pre-warm the default-scheme point through the single endpoint.
	code, single := postJSON(t, ts.URL, `{"experiment":"faultinject","trials":8,"seed":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("pre-warm: status %d", code)
	}
	pollDone(t, ts.URL, single.JobID)

	st, results, err := c.RunSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "faultinject", Trials: 8, Seed: 5},
		Axes: api.SweepAxes{Scheme: []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"}},
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.Total != 3 || st.Progress.Cached != 1 {
		t.Fatalf("sweep progress %+v, want 3 points with the default-scheme point cached", st.Progress)
	}
	wantSchemes := []string{"ondie-sec", "", "ondie+raim18"} // default folds to ""
	for i, pt := range st.Points {
		if pt.Params.Scheme != wantSchemes[i] {
			t.Errorf("point %d scheme %q, want %q", i, pt.Params.Scheme, wantSchemes[i])
		}
	}
	if st.Points[1].ResultHash != single.ResultHash {
		t.Errorf("default-scheme point hash %s, want the pre-warmed %s", st.Points[1].ResultHash, single.ResultHash)
	}
	var texts []string
	for i, res := range results {
		if res.Experiment != "faultinject" {
			t.Errorf("point %d experiment %q", i, res.Experiment)
		}
		texts = append(texts, res.Report.Text)
	}
	if texts[0] == texts[1] || texts[1] == texts[2] {
		t.Error("distinct schemes produced identical report text")
	}

	// Resubmitting the identical grid is fully cache-served and
	// byte-identical per point.
	st2, err := c.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "faultinject", Trials: 8, Seed: 5},
		Axes: api.SweepAxes{Scheme: []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Status != api.StatusDone || st2.Progress.Cached != 3 {
		t.Fatalf("resubmitted grid %+v, want fully cached", st2.Progress)
	}
	for i, pt := range st2.Points {
		b1, err := c.ResultBytes(ctx, st.Points[i].ResultHash)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := c.ResultBytes(ctx, pt.ResultHash)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("point %d bytes differ across submissions", i)
		}
	}

	// Scheme-axis mistakes surface as unknown_scheme at expansion.
	_, err = c.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "fig8"},
		Axes: api.SweepAxes{Scheme: []string{"chipkill36"}},
	})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownScheme {
		t.Errorf("scheme axis over scheme-blind experiment: %v, want code %q", err, api.CodeUnknownScheme)
	}
}
