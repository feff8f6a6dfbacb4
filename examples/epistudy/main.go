// EPI study: a compact version of the paper's Figs. 10–17 on two
// contrasting workloads — one memory-intensive and random (mcf-like), one
// highly sequential (streamcluster-like) — comparing LOT-ECC5+ECC Parity
// against the commercial and research baselines on quad-equivalent systems.
package main

import (
	"fmt"

	"eccparity/internal/sim"
)

func main() {
	workloads := []string{"mcf", "streamcluster"}

	fmt.Println("Quad-equivalent systems, 400K measured cycles, 8 cores")
	fmt.Printf("%-10s %-30s %9s %9s %9s %7s %10s\n",
		"workload", "scheme", "EPI(pJ)", "dyn(pJ)", "bg(pJ)", "IPC", "acc/kinstr")
	for _, wl := range workloads {
		for _, key := range sim.PaperSchemes {
			r := sim.Run(sim.DefaultConfig(key, sim.QuadEq, wl))
			fmt.Printf("%-10s %-30s %9.0f %9.0f %9.0f %7.2f %10.1f\n",
				wl, sim.SchemeByKey(key).Display, r.EPI, r.DynamicEPI, r.BackgroundEPI,
				r.IPC, 1000*r.AccessesPerInstr)
		}
		fmt.Println()
	}

	// Headline numbers in the paper's format.
	fmt.Println("EPI reductions of LOT-ECC5 + ECC Parity (cf. Fig. 10):")
	ev := sim.NewEvaluation(sim.QuadEq,
		[]string{"chipkill36", "chipkill18", "lotecc9", "multiecc", "lotecc5", "lotecc5+parity"},
		workloads)
	cmp := ev.Fig10EPI()
	for _, row := range cmp.Rows {
		fmt.Printf("  %-14s", row.Workload)
		for _, b := range cmp.Baselines {
			fmt.Printf("  vs %s: %5.1f%%", b, row.Value[b])
		}
		fmt.Println()
	}
}
