package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"eccparity/internal/cpu"
	"eccparity/internal/ecc"
	"eccparity/internal/faultmodel"
	"eccparity/internal/sim"
)

// This file holds the renderer for every experiment id: the text each one
// emits is byte-for-byte what the CLIs have always printed (the cmd/eccsim
// golden SHA-256 test pins the eccsim set), plus the structured rows behind
// the text for JSON consumers.

// registry maps experiment id → renderer. The eccsim/faultmc split mirrors
// which CLI historically owned the id; the daemon serves both sets.
var registry = map[string]spec{
	"fig1":       {source: "eccsim", title: "Fig. 1 — capacity overhead breakdown", run: fig1},
	"table1":     {source: "eccsim", title: "Table I — processor microarchitecture", run: table1},
	"table2":     {source: "eccsim", title: "Table II — evaluated ECC configurations", run: table2},
	"table3":     {source: "eccsim", title: "Table III — capacity overheads", run: table3},
	"fig9":       {source: "eccsim", title: "Fig. 9 — workload bandwidth utilization", run: fig9},
	"fig10":      {source: "eccsim", title: "Fig. 10 — memory EPI reduction (quad)", run: func(r *Runner, w io.Writer) (any, error) { return figEPI(r, w, sim.QuadEq) }},
	"fig11":      {source: "eccsim", title: "Fig. 11 — memory EPI reduction (dual)", run: func(r *Runner, w io.Writer) (any, error) { return figEPI(r, w, sim.DualEq) }},
	"fig12":      {source: "eccsim", title: "Fig. 12 — dynamic EPI reduction (quad)", run: figDyn},
	"fig13":      {source: "eccsim", title: "Fig. 13 — background EPI reduction (quad)", run: figBg},
	"fig14":      {source: "eccsim", title: "Fig. 14 — performance normalized (quad)", run: func(r *Runner, w io.Writer) (any, error) { return figPerf(r, w, sim.QuadEq) }},
	"fig15":      {source: "eccsim", title: "Fig. 15 — performance normalized (dual)", run: func(r *Runner, w io.Writer) (any, error) { return figPerf(r, w, sim.DualEq) }},
	"fig16":      {source: "eccsim", title: "Fig. 16 — accesses per instruction normalized (quad)", run: func(r *Runner, w io.Writer) (any, error) { return figAcc(r, w, sim.QuadEq) }},
	"fig17":      {source: "eccsim", title: "Fig. 17 — accesses per instruction normalized (dual)", run: func(r *Runner, w io.Writer) (any, error) { return figAcc(r, w, sim.DualEq) }},
	"counters":   {source: "eccsim", title: "§III-E — error-counter SRAM budget", run: counters},
	"hpcstall":   {source: "eccsim", title: "§VI-B — HPC system stall estimate", run: hpcStall},
	"undetected": {source: "eccsim", title: "§VI-D — undetectable error estimate", run: undetected},
	"mixedrank":  {source: "eccsim", title: "§VI-A — mixed narrow/wide ranks", run: mixedRank},
	"fig2":       {source: "faultmc", title: "Fig. 2 — mean time between faults in different channels", run: fig2},
	"fig8":       {source: "faultmc", title: "Fig. 8 — EOL fraction with materialized correction bits", run: fig8},
	"fig18":      {source: "faultmc", title: "Fig. 18 — P(multi-channel faults within one scrub window)", run: fig18},
	"schemeeval": {source: "serve", title: "Scheme evaluation — per-workload IPC/EPI/bandwidth for one configuration", run: schemeEval,
		defaultScheme: "ondie+chipkill"},
	"faultinject": {source: "serve", title: "Fault injection — codeword-level Monte Carlo outcomes for one scheme", run: faultInject,
		defaultScheme: "ondie+chipkill", codecLevel: true},
	"harpprofile": {source: "serve", title: "HARP profiling — at-risk bit coverage, on-die ECC active vs bypassed", run: harpProfile},
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// stage emits a progress line and returns a func that stamps the stage's
// wall-clock time when the work is done. Progress only — never Text.
func (r *Runner) stage(format string, args ...any) func() {
	if r.progress == nil {
		return func() {}
	}
	fmt.Fprintf(r.progress, format+"\n", args...)
	start := time.Now()
	return func() {
		fmt.Fprintf(r.progress, "  done in %v\n", time.Since(start).Round(time.Millisecond))
	}
}

func fig1(r *Runner, w io.Writer) (any, error) {
	header(w, "Fig. 1 — capacity overhead breakdown (detection vs correction bits)")
	rows := sim.Fig1CapacityBreakdown()
	for _, r := range rows {
		fmt.Fprintf(w, "%-38s detection %5.1f%%  correction %5.1f%%  total %5.1f%%\n",
			r.Scheme, 100*r.Detection, 100*r.Correction, 100*(r.Detection+r.Correction))
	}
	return rows, nil
}

func table1(r *Runner, w io.Writer) (any, error) {
	header(w, "Table I — processor microarchitecture")
	p := cpu.DefaultParams()
	fmt.Fprintf(w, "Issue width %d | bounded MLP %d | LLC hit %d cycles | 8 cores, 2GHz\n",
		p.IssueWidth, p.MaxOutstanding, p.LLCHitCycles)
	fmt.Fprintln(w, "L2 (LLC): 8MB, 16 ways, 64B/128B lines per scheme")
	return p, nil
}

// Table2Row is one evaluated configuration's geometry (Table II).
type Table2Row struct {
	Key      string       `json:"key"`
	Display  string       `json:"display"`
	Geometry ecc.Geometry `json:"geometry"`
}

func table2(r *Runner, w io.Writer) (any, error) {
	header(w, "Table II — evaluated ECC configurations")
	fmt.Fprintf(w, "%-32s %-14s %5s %10s %9s %9s\n", "", "Rank", "Line", "Ranks/Chan", "Channels", "I/O pins")
	rows := []Table2Row{}
	for _, key := range sim.PaperSchemes {
		sc := sim.SchemeByKey(key)
		g := sc.Base.Geometry()
		fmt.Fprintf(w, "%-32s %-14s %4dB %10d %5d,%3d %5d,%4d\n",
			sc.Display, g.RankConfig, g.LineSize, g.RanksPerChannel,
			g.ChannelsDualEq, g.ChannelsQuadEq, g.PinsDualEq, g.PinsQuadEq)
		rows = append(rows, Table2Row{Key: key, Display: sc.Display, Geometry: g})
	}
	return rows, nil
}

func table3(r *Runner, w io.Writer) (any, error) {
	header(w, "Table III — capacity overheads (EOL = end of life)")
	rows, err := sim.Table3CapacityContext(r.ctx, r.p.Trials, r.p.Seed, r.p.Workers)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r.EOL > 0 {
			fmt.Fprintf(w, "%-40s %5.1f%%, EOL avg: %5.1f%%\n", r.Config, 100*r.Overhead, 100*r.EOL)
		} else {
			fmt.Fprintf(w, "%-40s %5.1f%%\n", r.Config, 100*r.Overhead)
		}
	}
	return rows, nil
}

func fig9(r *Runner, w io.Writer) (any, error) {
	header(w, "Fig. 9 — workload bandwidth utilization (dual-channel commercial ECC)")
	rows, err := r.fig9Rows()
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Utilization > rows[j].Utilization })
	for _, r := range rows {
		bin := "Bin1"
		if r.Bin2 {
			bin = "Bin2"
		}
		fmt.Fprintf(w, "%-15s %s  %5.1f%% of peak  (%.1f GB/s)\n", r.Workload, bin, 100*r.Utilization, r.GBs)
	}
	return rows, nil
}

// printComparison renders one figure's comparison table, as text or (when
// Params.CSV is set) machine-readable CSV rows.
func (r *Runner) printComparison(w io.Writer, c sim.Comparison, unit string) {
	if r.p.CSV {
		fmt.Fprintf(w, "workload")
		for _, b := range c.Baselines {
			fmt.Fprintf(w, ",vs_%s", b)
		}
		fmt.Fprintln(w)
		for _, row := range c.Rows {
			fmt.Fprintf(w, "%s", row.Workload)
			for _, b := range c.Baselines {
				fmt.Fprintf(w, ",%.3f", row.Value[b])
			}
			fmt.Fprintln(w)
		}
		for _, agg := range []struct {
			label string
			m     map[string]float64
		}{{"bin1_mean", c.Bin1Mean}, {"bin2_mean", c.Bin2Mean}, {"mean", c.Mean}} {
			fmt.Fprintf(w, "%s", agg.label)
			for _, b := range c.Baselines {
				fmt.Fprintf(w, ",%.3f", agg.m[b])
			}
			fmt.Fprintln(w)
		}
		return
	}
	fmt.Fprintf(w, "%-15s", "workload")
	for _, b := range c.Baselines {
		fmt.Fprintf(w, " %14s", "vs "+b)
	}
	fmt.Fprintln(w)
	for _, row := range c.Rows {
		fmt.Fprintf(w, "%-15s", row.Workload)
		for _, b := range c.Baselines {
			fmt.Fprintf(w, " %13.1f%s", row.Value[b], unit)
		}
		fmt.Fprintln(w)
	}
	for _, label := range []string{"Bin1 mean", "Bin2 mean", "mean"} {
		fmt.Fprintf(w, "%-15s", label)
		for _, b := range c.Baselines {
			var v float64
			switch label {
			case "Bin1 mean":
				v = c.Bin1Mean[b]
			case "Bin2 mean":
				v = c.Bin2Mean[b]
			default:
				v = c.Mean[b]
			}
			fmt.Fprintf(w, " %13.1f%s", v, unit)
		}
		fmt.Fprintln(w)
	}
}

// ComparisonPair holds the two comparisons of the EPI/performance figures:
// LOT-ECC5+Parity vs its baselines and RAIM+Parity vs RAIM.
type ComparisonPair struct {
	Parity sim.Comparison `json:"parity"`
	RAIM   sim.Comparison `json:"raim"`
}

func figEPI(r *Runner, w io.Writer, class sim.SystemClass) (any, error) {
	header(w, fmt.Sprintf("Fig. %s — memory EPI reduction, %s systems", figNo(class, "10", "11"), class))
	ev, err := r.eval(class)
	if err != nil {
		return nil, err
	}
	data := ComparisonPair{Parity: ev.Fig10EPI(), RAIM: ev.FigRAIMEPI()}
	fmt.Fprintln(w, "LOT-ECC5 + ECC Parity:")
	r.printComparison(w, data.Parity, "%")
	fmt.Fprintln(w, "RAIM + ECC Parity:")
	r.printComparison(w, data.RAIM, "%")
	return data, nil
}

func figDyn(r *Runner, w io.Writer) (any, error) {
	header(w, "Fig. 12 — dynamic EPI reduction, quad-equivalent systems")
	ev, err := r.eval(sim.QuadEq)
	if err != nil {
		return nil, err
	}
	data := ComparisonPair{Parity: ev.Fig12Dynamic(), RAIM: ev.Fig12DynamicRAIM()}
	r.printComparison(w, data.Parity, "%")
	fmt.Fprintln(w, "RAIM + ECC Parity:")
	r.printComparison(w, data.RAIM, "%")
	return data, nil
}

func figBg(r *Runner, w io.Writer) (any, error) {
	header(w, "Fig. 13 — background EPI reduction, quad-equivalent systems")
	ev, err := r.eval(sim.QuadEq)
	if err != nil {
		return nil, err
	}
	data := ev.Fig13Background()
	r.printComparison(w, data, "%")
	return data, nil
}

func figPerf(r *Runner, w io.Writer, class sim.SystemClass) (any, error) {
	header(w, fmt.Sprintf("Fig. %s — performance normalized to baselines, %s systems", figNo(class, "14", "15"), class))
	ev, err := r.eval(class)
	if err != nil {
		return nil, err
	}
	data := ComparisonPair{Parity: ev.Fig14Perf(), RAIM: ev.Fig14PerfRAIM()}
	r.printComparison(w, data.Parity, "x")
	fmt.Fprintln(w, "RAIM + ECC Parity:")
	r.printComparison(w, data.RAIM, "x")
	return data, nil
}

func figAcc(r *Runner, w io.Writer, class sim.SystemClass) (any, error) {
	header(w, fmt.Sprintf("Fig. %s — memory accesses per instruction normalized (lower is better), %s systems", figNo(class, "16", "17"), class))
	ev, err := r.eval(class)
	if err != nil {
		return nil, err
	}
	data := ev.Fig16Accesses()
	r.printComparison(w, data, "x")
	return data, nil
}

func figNo(class sim.SystemClass, quad, dual string) string {
	if class == sim.QuadEq {
		return quad
	}
	return dual
}

// CountersData is the §III-E error-counter SRAM budget.
type CountersData struct {
	SRAMBytes       int `json:"sram_bytes"`
	MaxRetiredPages int `json:"max_retired_pages"`
}

func counters(r *Runner, w io.Writer) (any, error) {
	header(w, "§III-E — error-counter SRAM budget")
	data := CountersData{
		SRAMBytes:       faultmodel.CounterSRAMBytes(1024) * 2,
		MaxRetiredPages: faultmodel.MaxRetiredPages(4, 8),
	}
	fmt.Fprintf(w, "512GB system, 1024 rank-level banks: %dB of on-chip counters (0.5B per pair)\n",
		data.SRAMBytes)
	fmt.Fprintf(w, "Max pages retired before a pair saturates (threshold 4, 8 channels): %d\n",
		data.MaxRetiredPages)
	return data, nil
}

// HPCStallData is the §VI-B stall estimate.
type HPCStallData struct {
	StallFraction float64 `json:"stall_fraction"`
}

func hpcStall(r *Runner, w io.Writer) (any, error) {
	header(w, "§VI-B — HPC system stall estimate")
	cfg := faultmodel.DefaultHPCConfig()
	data := HPCStallData{StallFraction: cfg.StallFraction()}
	fmt.Fprintf(w, "2PB system, 128GB/node, 1GB/s NIC: stalled %.2f%% of the time (paper: 0.35%%)\n",
		100*data.StallFraction)
	return data, nil
}

// MixedRankPoint pairs one hot-fraction sweep point with its result.
type MixedRankPoint struct {
	HotFraction float64 `json:"hot_fraction"`
	sim.MixedRankResult
}

func mixedRank(r *Runner, w io.Writer) (any, error) {
	header(w, "§VI-A — mixed narrow/wide ranks (2 wide + 2 narrow per channel, 8 channels)")
	fmt.Fprintln(w, "hot%   dyn pJ/access   vs all-narrow   capacity vs all-narrow   ECC overhead (parity vs none)")
	hots := []float64{0, 0.5, 0.8, 0.9, 0.95, 1.0}
	points := []MixedRankPoint{}
	for i, r := range sim.MixedRankSweep() {
		fmt.Fprintf(w, "%4.0f%%  %13.0f   %12.2fx   %21.2fx   %.1f%% vs %.1f%%\n",
			100*hots[i], r.Blended, r.BlendedVsAllNarrow, r.RelativeCapacity,
			100*r.OverheadWithParity, 100*r.OverheadWithoutParity)
		points = append(points, MixedRankPoint{HotFraction: hots[i], MixedRankResult: r})
	}
	return points, nil
}

// UndetectedData is the §VI-D undetectable-error estimate.
type UndetectedData struct {
	Years float64 `json:"years"`
}

func undetected(r *Runner, w io.Writer) (any, error) {
	header(w, "§VI-D — undetectable error rate, modified LOT-ECC5 encoding")
	years := faultmodel.UndetectedErrorYears(faultmodel.PaperTopology(8), faultmodel.DefaultRates(), 4)
	fmt.Fprintf(w, "One undetected error per %.0f years (paper: ~300,000; target: 1000)\n", years)
	return UndetectedData{Years: years}, nil
}

// Fig2Data is the analytic curve plus its Monte Carlo cross-check.
type Fig2Data struct {
	Rows           []sim.Fig2Row `json:"rows"`
	CrossCheckFIT  float64       `json:"cross_check_fit"`
	MonteCarloDays float64       `json:"monte_carlo_days"`
	AnalyticDays   float64       `json:"analytic_days"`
}

func fig2(r *Runner, w io.Writer) (any, error) {
	fmt.Fprintln(w, "=== Fig. 2 — mean time between faults in different channels ===")
	fmt.Fprintln(w, "(8 channels × 4 ranks × 9 chips, exponential failure distribution)")
	rows := sim.Fig2ChannelFaultGaps()
	for _, r := range rows {
		fmt.Fprintf(w, "%6.0f FIT/chip: %8.0f days\n", r.FITPerChip, r.MeanDays)
	}
	// Cross-check one point against Monte Carlo (40 trials suffice).
	done := r.stage("fig2: Monte Carlo cross-check, 40 trials, workers=%d", r.p.Workers)
	topo := faultmodel.PaperTopology(8)
	mc, err := faultmodel.MeasureChannelFaultGapsContext(r.ctx, 44, topo, 40, r.p.Seed, r.p.Workers)
	if err != nil {
		return nil, err
	}
	done()
	data := Fig2Data{
		Rows:           rows,
		CrossCheckFIT:  44,
		MonteCarloDays: mc / 24,
		AnalyticDays:   faultmodel.MeanTimeBetweenChannelFaults(44, topo) / 24,
	}
	fmt.Fprintf(w, "Monte Carlo cross-check at 44 FIT: %.0f days (analytic %.0f)\n",
		data.MonteCarloDays, data.AnalyticDays)
	return data, nil
}

func fig8(r *Runner, w io.Writer) (any, error) {
	fmt.Fprintln(w, "\n=== Fig. 8 — fraction of memory with stored correction bits after 7 years ===")
	done := r.stage("fig8: %d trials × 4 channel counts, seed=%d, workers=%d", r.p.Trials, r.p.Seed, r.p.Workers)
	rows, err := sim.Fig8EOLFractionsContext(r.ctx, r.p.Trials, r.p.Seed, r.p.Workers)
	if err != nil {
		return nil, err
	}
	done()
	for _, r := range rows {
		fmt.Fprintf(w, "%2d channels: mean %5.2f%%   99.9th pct %5.2f%%\n",
			r.Channels, 100*r.Mean, 100*r.P999)
	}
	return rows, nil
}

func fig18(r *Runner, w io.Writer) (any, error) {
	fmt.Fprintln(w, "\n=== Fig. 18 — P(faults in >1 channel within one detection window, 7-year life) ===")
	rows := sim.Fig18ScrubWindows()
	last := 0.0
	for _, r := range rows {
		if r.FITPerChip != last {
			fmt.Fprintf(w, "-- %.0f FIT/chip --\n", r.FITPerChip)
			last = r.FITPerChip
		}
		fmt.Fprintf(w, "window %6.0f h: %.6f\n", r.WindowHours, r.Probability)
	}
	fmt.Fprintln(w, "(paper reference point: 8h window at 100 FIT → 0.0002)")
	return rows, nil
}
