// Trace replay: record a workload once, replay it through two different
// resilience schemes, and show that (a) replay is bit-identical to the
// live generator and (b) a shared trace makes scheme comparisons
// input-identical — the role the paper's SimPoint checkpoints play.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"eccparity/internal/sim"
	"eccparity/internal/workload"
)

// run simulates cfg to completion.
func run(cfg sim.Config) sim.Result {
	r, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	cfg := sim.DefaultConfig("lotecc5+parity", sim.QuadEq, "milc")
	cfg.MeasureCycles = 200000
	cfg.WarmupAccesses = 25000

	fmt.Println("1. Recording milc (8 cores) to an in-memory trace...")
	traces := make([][]byte, cfg.Cores)
	perCore := cfg.WarmupAccesses + 50000
	for i := 0; i < cfg.Cores; i++ {
		var buf bytes.Buffer
		g := workload.NewGenerator(cfg.Workload, i, cfg.Seed)
		if err := workload.WriteTrace(&buf, g, perCore); err != nil {
			log.Fatal(err)
		}
		traces[i] = buf.Bytes()
	}
	fmt.Printf("   %d accesses/core, %.1f bytes/access encoded\n",
		perCore, float64(len(traces[0]))/float64(perCore))

	sources := func() []workload.Source {
		out := make([]workload.Source, cfg.Cores)
		for i := range out {
			tr, err := workload.ReadTrace(bytes.NewReader(traces[i]))
			if err != nil {
				log.Fatal(err)
			}
			out[i] = tr
		}
		return out
	}

	fmt.Println("2. Live generator vs trace replay (must be identical):")
	live := run(cfg)
	cfg.Sources = sources()
	replayed := run(cfg)
	fmt.Printf("   live:   EPI %.1f pJ, IPC %.3f\n", live.EPI, live.IPC)
	fmt.Printf("   replay: EPI %.1f pJ, IPC %.3f (identical: %v)\n",
		replayed.EPI, replayed.IPC, live.EPI == replayed.EPI && live.IPC == replayed.IPC)

	fmt.Println("3. Same trace through the 36-device commercial baseline:")
	base := sim.DefaultConfig("chipkill36", sim.QuadEq, "milc")
	base.MeasureCycles = cfg.MeasureCycles
	base.WarmupAccesses = cfg.WarmupAccesses
	base.Sources = sources()
	b := run(base)
	fmt.Printf("   chipkill36: EPI %.1f pJ | LOT-ECC5+Parity: EPI %.1f pJ → %.1f%% reduction\n",
		b.EPI, replayed.EPI, 100*(b.EPI-replayed.EPI)/b.EPI)
}
