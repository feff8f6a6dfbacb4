package sim

import (
	"context"
	"io"
	"sort"

	"eccparity/internal/core"
	"eccparity/internal/ecc"
	"eccparity/internal/faultmodel"
	"eccparity/internal/parallel"
	"eccparity/internal/stats"
	"eccparity/internal/workload"
)

// This file contains the experiment runners, one per table/figure of the
// paper's evaluation (see DESIGN.md §4 for the index).

// PaperSchemes lists the paper's evaluated configurations in Table II
// order: the default scheme set of the evaluation matrix. ParityBaselines
// and RAIMBaselines list what the two ECC Parity configurations are
// compared against in Figs. 10–17.
var (
	PaperSchemes    = []string{"chipkill36", "chipkill18", "lotecc5", "lotecc9", "multiecc", "lotecc5+parity", "raim", "raim+parity"}
	ParityBaselines = []string{"chipkill36", "chipkill18", "lotecc9", "multiecc", "lotecc5"}
	RAIMBaselines   = []string{"raim"}
)

// Option tweaks an Evaluation (tests shrink the runs).
type Option func(*Config)

// WithCycles overrides the measured window.
func WithCycles(cycles float64) Option {
	return func(c *Config) { c.MeasureCycles = cycles }
}

// WithWarmup overrides the per-core warmup accesses.
func WithWarmup(n int) Option {
	return func(c *Config) { c.WarmupAccesses = n }
}

// WithSeed overrides the per-cell workload seed. Same seed ⇒ same numbers,
// at any worker count.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithWorkers bounds the worker pool of the grid runners (≤0 = NumCPU).
// Purely a throughput knob: results do not depend on it.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithProgress directs the grid runners' done/total ticker to w.
func WithProgress(w io.Writer) Option {
	return func(c *Config) { c.ProgressW = w }
}

// Evaluation holds the full (scheme × workload) result matrix for one
// system class, from which Figs. 9–17 all derive.
type Evaluation struct {
	Class   SystemClass
	Results map[string]map[string]Result // scheme key → workload → result
}

// Matrix is one system class's (scheme × workload) evaluation laid out as
// independent cells: RunCell simulates one, and Evaluation assembles the
// finished results. A cell's result depends only on its own Config, so any
// number of callers may fill one Matrix together through parallel.Shared
// and the Evaluation is the same whichever caller ran each cell — the
// property the report layer's shared evaluation store is built on.
type Matrix struct {
	class   SystemClass
	keys    [][2]string // (scheme key, workload) of each cell
	cfgs    []Config
	workers int
	prog    *parallel.Progress
}

// Matrix lays out the (scheme × workload) matrix for a system class with
// the Sim's options; nil schemes mean PaperSchemes and nil workloads mean
// all. Results are keyed by each configuration's Key, so a parameterized
// variant from SchemeVariant runs like any table entry.
func (s *Sim) Matrix(class SystemClass, schemes []SchemeConfig, workloads []string) *Matrix {
	if schemes == nil {
		for _, k := range PaperSchemes {
			schemes = append(schemes, SchemeByKey(k))
		}
	}
	if workloads == nil {
		workloads = workload.Names()
	}
	m := &Matrix{class: class}
	for _, sc := range schemes {
		for _, wl := range workloads {
			cfg := cellConfig(sc, class, wl)
			for _, o := range s.opts {
				o(&cfg)
			}
			m.keys = append(m.keys, [2]string{sc.Key, wl})
			m.cfgs = append(m.cfgs, cfg)
		}
	}
	if len(m.cfgs) > 0 {
		grid := m.cfgs[0] // the grid-level knobs are cell-invariant
		m.workers = grid.Workers
		m.prog = parallel.NewProgress(grid.ProgressW, "sim "+class.String(), len(m.cfgs))
	}
	return m
}

// Cells returns the number of cells, schemes outermost.
func (m *Matrix) Cells() int { return len(m.cfgs) }

// RunCell simulates cell i. Canceling ctx interrupts it at the engine's
// checkpoint interval and returns ctx's error.
func (m *Matrix) RunCell(ctx context.Context, i int) (Result, error) {
	r, err := RunContext(ctx, m.cfgs[i])
	if err != nil {
		return Result{}, err
	}
	m.prog.Step()
	return r, nil
}

// Evaluation assembles the matrix from every cell's result, in cell order.
func (m *Matrix) Evaluation(results []Result) *Evaluation {
	ev := &Evaluation{Class: m.class, Results: map[string]map[string]Result{}}
	for i, k := range m.keys {
		if ev.Results[k[0]] == nil {
			ev.Results[k[0]] = map[string]Result{}
		}
		ev.Results[k[0]][k[1]] = results[i]
	}
	return ev
}

// Workloads returns the evaluated workload names in stable order.
func (ev *Evaluation) Workloads() []string {
	var any map[string]Result
	for _, m := range ev.Results {
		any = m
		break
	}
	out := make([]string, 0, len(any))
	for wl := range any {
		out = append(out, wl)
	}
	sort.Strings(out)
	return out
}

// bin2Set returns the higher-bandwidth half of the evaluated workloads,
// binned — as the paper bins them — by measured bandwidth on the
// commercial chipkill system. Falls back to the static spec flags when the
// matrix does not include chipkill36.
func (ev *Evaluation) bin2Set() map[string]bool {
	out := map[string]bool{}
	ck, ok := ev.Results["chipkill36"]
	if !ok {
		for _, n := range workload.Bin2Names() {
			out[n] = true
		}
		return out
	}
	wls := ev.Workloads()
	sort.Slice(wls, func(i, j int) bool {
		return ck[wls[i]].BandwidthGBs > ck[wls[j]].BandwidthGBs
	})
	for i, wl := range wls {
		if i < len(wls)/2 {
			out[wl] = true
		}
	}
	return out
}

// Metric extracts one scalar from a Result.
type Metric func(Result) float64

// The metrics behind the figures.
var (
	MetricEPI           = func(r Result) float64 { return r.EPI }
	MetricDynamicEPI    = func(r Result) float64 { return r.DynamicEPI }
	MetricBackgroundEPI = func(r Result) float64 { return r.BackgroundEPI }
	MetricIPC           = func(r Result) float64 { return r.IPC }
	MetricAccesses      = func(r Result) float64 { return r.AccessesPerInstr }
)

// ComparisonRow is one workload's comparison of a subject scheme against
// each baseline.
type ComparisonRow struct {
	Workload string
	// Value[baseline] is either a reduction percentage (energy figures) or
	// a normalized ratio subject/baseline (performance, accesses).
	Value map[string]float64
}

// Comparison is a whole figure: per-workload rows plus Bin1/Bin2 means.
type Comparison struct {
	Subject   string
	Baselines []string
	Rows      []ComparisonRow
	Bin1Mean  map[string]float64
	Bin2Mean  map[string]float64
	Mean      map[string]float64
}

// compare builds a Comparison. When reduction is true, values are
// 100·(baseline−subject)/baseline; otherwise subject/baseline ratios.
func (ev *Evaluation) compare(subject string, baselines []string, m Metric, reduction bool) Comparison {
	cmp := Comparison{
		Subject:   subject,
		Baselines: baselines,
		Bin1Mean:  map[string]float64{},
		Bin2Mean:  map[string]float64{},
		Mean:      map[string]float64{},
	}
	bin2 := ev.bin2Set()
	acc := map[string]map[bool][]float64{}
	for _, b := range baselines {
		acc[b] = map[bool][]float64{}
	}
	for _, wl := range ev.Workloads() {
		row := ComparisonRow{Workload: wl, Value: map[string]float64{}}
		subj := m(ev.Results[subject][wl])
		for _, b := range baselines {
			base := m(ev.Results[b][wl])
			var v float64
			if reduction {
				v = stats.ReductionPct(base, subj)
			} else if base != 0 {
				v = subj / base
			}
			row.Value[b] = v
			acc[b][bin2[wl]] = append(acc[b][bin2[wl]], v)
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	for _, b := range baselines {
		cmp.Bin1Mean[b] = stats.Mean(acc[b][false])
		cmp.Bin2Mean[b] = stats.Mean(acc[b][true])
		cmp.Mean[b] = stats.Mean(append(append([]float64{}, acc[b][false]...), acc[b][true]...))
	}
	return cmp
}

// Fig10EPI (quad) / Fig11EPI (dual): memory EPI reduction of LOT-ECC5+ECC
// Parity over the chipkill baselines.
func (ev *Evaluation) Fig10EPI() Comparison {
	return ev.compare("lotecc5+parity", ParityBaselines, MetricEPI, true)
}

// FigRAIMEPI: RAIM+ECC Parity vs RAIM (part of Figs. 10–11).
func (ev *Evaluation) FigRAIMEPI() Comparison {
	return ev.compare("raim+parity", RAIMBaselines, MetricEPI, true)
}

// Fig12Dynamic: dynamic EPI reduction (quad).
func (ev *Evaluation) Fig12Dynamic() Comparison {
	return ev.compare("lotecc5+parity", ParityBaselines, MetricDynamicEPI, true)
}

// Fig12DynamicRAIM: dynamic EPI reduction of RAIM+Parity vs RAIM.
func (ev *Evaluation) Fig12DynamicRAIM() Comparison {
	return ev.compare("raim+parity", RAIMBaselines, MetricDynamicEPI, true)
}

// Fig13Background: background EPI reduction (quad).
func (ev *Evaluation) Fig13Background() Comparison {
	return ev.compare("lotecc5+parity", ParityBaselines, MetricBackgroundEPI, true)
}

// Fig14Perf / Fig15Perf: performance (IPC) normalized to the baselines.
func (ev *Evaluation) Fig14Perf() Comparison {
	return ev.compare("lotecc5+parity", ParityBaselines, MetricIPC, false)
}

// Fig14PerfRAIM: RAIM+Parity performance normalized to RAIM.
func (ev *Evaluation) Fig14PerfRAIM() Comparison {
	return ev.compare("raim+parity", RAIMBaselines, MetricIPC, false)
}

// Fig16Accesses / Fig17Accesses: 64B-normalized memory accesses per
// instruction, normalized to the baselines (lower is better).
func (ev *Evaluation) Fig16Accesses() Comparison {
	return ev.compare("lotecc5+parity", ParityBaselines, MetricAccesses, false)
}

// Fig9Row is one bar of the bandwidth characterization.
type Fig9Row struct {
	Workload    string
	Utilization float64
	GBs         float64
	Bin2        bool
}

// Fig9Rows reads the bandwidth characterization, in workload spec order,
// from the chipkill36 cells of a dual-channel evaluation: the paper
// characterizes the workloads on the commercial chipkill system.
func (ev *Evaluation) Fig9Rows() []Fig9Row {
	ck := ev.Results["chipkill36"]
	rows := make([]Fig9Row, 0, len(ck))
	for _, spec := range workload.Specs() {
		if r, ok := ck[spec.Name]; ok {
			rows = append(rows, Fig9Row{Workload: spec.Name, Utilization: r.BandwidthUtil, GBs: r.BandwidthGBs, Bin2: spec.Bin2})
		}
	}
	return rows
}

// Fig1Row is one scheme's capacity-overhead breakdown.
type Fig1Row struct {
	Scheme     string
	Detection  float64
	Correction float64
}

// Fig1CapacityBreakdown regenerates the detection/correction split for the
// four schemes the paper plots.
func Fig1CapacityBreakdown() []Fig1Row {
	rows := []Fig1Row{}
	for _, key := range []string{"chipkill36", "raim", "lotecc9", "lotecc5"} {
		s := ecc.ByName(key)
		o := s.Overheads()
		rows = append(rows, Fig1Row{Scheme: s.Name(), Detection: o.Detection, Correction: o.Correction})
	}
	return rows
}

// Table3Row is one capacity-overhead row of Table III.
type Table3Row struct {
	Config   string
	Overhead float64
	EOL      float64 // zero when not applicable
}

// Table3CapacityContext regenerates Table III with cancellation. The EOL
// columns use the Fig. 8 Monte Carlo marked fraction for the paper's
// 4-rank/9-chip topology; trials fan out over at most workers goroutines
// (≤0 = NumCPU) with worker-count-invariant results.
func Table3CapacityContext(ctx context.Context, mcTrials int, seed int64, workers int) ([]Table3Row, error) {
	var eolErr error
	frac := func(channels int) float64 {
		if eolErr != nil {
			return 0
		}
		res, err := faultmodel.SimulateEOLContext(ctx, faultmodel.PaperTopology(channels), faultmodel.DefaultRates(),
			7*faultmodel.HoursPerYear, mcTrials, seed, workers)
		if err != nil {
			eolErr = err
			return 0
		}
		return res.MeanFraction
	}
	overhead := func(key string) float64 { return ecc.ByName(key).Overheads().Total() }
	lot5 := ecc.R(ecc.ByName("lotecc5"))
	raimR := ecc.R(ecc.ByName("raim18"))
	rows := []Table3Row{
		{Config: "36-device commercial chipkill correct", Overhead: overhead("chipkill36")},
		{Config: "18-device commercial chipkill correct", Overhead: overhead("chipkill18")},
		{Config: "LOT-ECC9", Overhead: overhead("lotecc9")},
		{Config: "Multi-ECC", Overhead: overhead("multiecc")},
		{Config: "LOT-ECC5", Overhead: overhead("lotecc5")},
		{Config: "8 chan LOT-ECC5 + ECC Parity", Overhead: core.StaticOverhead(lot5, 8),
			EOL: core.EOLOverhead(lot5, 8, frac(8))},
		{Config: "4 chan LOT-ECC5 + ECC Parity", Overhead: core.StaticOverhead(lot5, 4),
			EOL: core.EOLOverhead(lot5, 4, frac(4))},
		{Config: "RAIM", Overhead: overhead("raim")},
		{Config: "10 chan RAIM + ECC Parity", Overhead: core.StaticOverhead(raimR, 10),
			EOL: core.EOLOverhead(raimR, 10, frac(10))},
		{Config: "5 chan RAIM + ECC Parity", Overhead: core.StaticOverhead(raimR, 5),
			EOL: core.EOLOverhead(raimR, 5, frac(5))},
	}
	if eolErr != nil {
		return nil, eolErr
	}
	return rows, nil
}

// Fig2Row is one point of the mean-time-between-channel-faults curve.
type Fig2Row struct {
	FITPerChip float64
	MeanDays   float64
}

// Fig2ChannelFaultGaps regenerates Fig. 2 analytically for the paper's
// eight-channel topology.
func Fig2ChannelFaultGaps() []Fig2Row {
	topo := faultmodel.PaperTopology(8)
	rows := []Fig2Row{}
	for _, fit := range []float64{10, 20, 30, 44, 60, 80, 100} {
		hours := faultmodel.MeanTimeBetweenChannelFaults(fit, topo)
		rows = append(rows, Fig2Row{FITPerChip: fit, MeanDays: hours / 24})
	}
	return rows
}

// Fig8Row is one bar of the EOL correction-bit fraction study.
type Fig8Row struct {
	Channels int
	Mean     float64
	P999     float64
}

// Fig8EOLFractionsContext regenerates Fig. 8 across channel counts with
// cancellation; each channel count's Monte Carlo trials fan out over at
// most workers goroutines (≤0 = NumCPU) with worker-count-invariant
// results.
func Fig8EOLFractionsContext(ctx context.Context, trials int, seed int64, workers int) ([]Fig8Row, error) {
	rows := []Fig8Row{}
	for _, n := range []int{2, 4, 8, 16} {
		res, err := faultmodel.SimulateEOLContext(ctx, faultmodel.PaperTopology(n), faultmodel.DefaultRates(),
			7*faultmodel.HoursPerYear, trials, seed, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{Channels: n, Mean: res.MeanFraction, P999: res.P999Fraction})
	}
	return rows, nil
}

// Fig18Row is one curve point of the scrub-window study.
type Fig18Row struct {
	WindowHours float64
	FITPerChip  float64
	Probability float64
}

// Fig18ScrubWindows regenerates Fig. 18: probability of faults in more
// than one channel within any single detection window over seven years.
func Fig18ScrubWindows() []Fig18Row {
	topo := faultmodel.PaperTopology(8)
	rows := []Fig18Row{}
	for _, fit := range []float64{25, 44, 100} {
		for _, w := range []float64{1, 2, 4, 8, 24, 72, 168} {
			rows = append(rows, Fig18Row{
				WindowHours: w,
				FITPerChip:  fit,
				Probability: faultmodel.ProbMultiChannelInWindow(fit, topo, w, 7*faultmodel.HoursPerYear),
			})
		}
	}
	return rows
}
