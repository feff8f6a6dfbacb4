// Package cliflags holds the flag plumbing of the experiment binaries: the
// -seed/-workers knobs of the deterministic runners and the
// -cpuprofile/-memprofile pair wired to internal/prof (cmd/eccsim), and the
// count validation cmd/eccsimd shares, so both reject the same typos with
// the same messages.
package cliflags

import (
	"flag"
	"fmt"
	"runtime"

	"eccparity/internal/prof"
)

// Common is the flag set every experiment CLI shares. Register binds it to
// a FlagSet; Validate rejects nonsense before any work starts.
type Common struct {
	Seed       int64
	Workers    int
	CPUProfile string
	MemProfile string
}

// Register binds the shared flags to fs (use flag.CommandLine in main) and
// returns the struct the parsed values land in.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", 1, "workload and Monte Carlo seed (results depend only on this, never on -workers)")
	fs.IntVar(&c.Workers, "workers", runtime.NumCPU(), "worker goroutines for simulation grids and Monte Carlo (default NumCPU)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

// Validate checks the parsed values. Call it right after flag.Parse.
func (c *Common) Validate() error {
	return CheckWorkers(c.Workers)
}

// StartProfiling begins CPU/heap profiling per the parsed flags and returns
// the stop function that must run on clean exit.
func (c *Common) StartProfiling() (stop func(), err error) {
	return prof.Start(c.CPUProfile, c.MemProfile)
}

// CheckPositive rejects values below 1 for a count-valued flag.
func CheckPositive(flagName string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s must be >= 1 (got %d)", flagName, n)
	}
	return nil
}

// CheckWorkers rejects worker counts below 1. The library layer clamps ≤0
// to NumCPU for programmatic callers, but at the CLI an explicit
// -workers 0 or negative is a typo, not a request for NumCPU — fail loudly
// instead of silently substituting a different pool size.
func CheckWorkers(n int) error { return CheckPositive("-workers", n) }

// CheckTrials rejects non-positive Monte Carlo trial counts.
func CheckTrials(n int) error { return CheckPositive("-trials", n) }
