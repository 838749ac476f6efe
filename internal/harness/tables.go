package harness

import (
	"fmt"
	"text/tabwriter"
	"time"

	"lxr/internal/core"
	"lxr/internal/stats"
	"lxr/internal/vm"
	"lxr/internal/workload"
)

// RunTable1 regenerates Table 1: lusearch at a 1.3× heap under G1,
// Shenandoah and LXR, plus Shenandoah at a 10× heap — throughput (QPS,
// time), query latency percentiles and GC pause percentiles.
func RunTable1(opts Options) []*RunResult {
	opts = opts.WithDefaults()
	spec, _ := workload.ByName("lusearch")
	rate := CalibrateRate(spec, opts)
	rows := []*RunResult{
		RunOne(spec, CG1, 1.3, rate, opts),
		RunOne(spec, CShen, 1.3, rate, opts),
		RunOne(spec, CLXR, 1.3, rate, opts),
	}
	shen10 := RunOne(spec, CShen, 10, rate, opts)
	shen10.Collector = "Shenandoah10x"
	rows = append(rows, shen10)

	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: lusearch @1.3x heap — throughput, query latency, GC pauses")
	fmt.Fprintln(w, "Algorithm\tQPS\tTime(s)\tq50ms\tq99\tq99.9\tq99.99\tgc50ms\tgc99\tgc99.9\tgc99.99")
	for _, r := range rows {
		if !r.OK {
			fmt.Fprintf(w, "%s\t-\n", r.Collector)
			continue
		}
		p50, _, p99, p999, p9999 := latPercentiles(r.Latency)
		g := func(p float64) float64 { return r.PausePercentile(p) }
		fmt.Fprintf(w, "%s\t%.0f\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Collector, r.QPS, r.Wall.Seconds(), p50, p99, p999, p9999, g(50), g(99), g(99.9), g(99.99))
	}
	w.Flush()
	return rows
}

// RunTable3 regenerates Table 3: benchmark characteristics — the paper's
// demographics next to the values the synthetic workload realises on
// this substrate (measured under LXR at a 2× heap).
func RunTable3(opts Options) {
	opts = opts.WithDefaults()
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 3: benchmark characteristics (paper -> simulated)")
	fmt.Fprintln(w, "Benchmark\theapMB(sim)\tallocMB(sim)\talloc/heap\tMB/s(sim)\tobj\tlrg%\tsrv%(meas)")
	for _, spec := range opts.selected(workload.Suite()) {
		sz := opts.Scale.Size(spec)
		r := RunOne(spec, CLXR, 2, 0, opts)
		rate := float64(0)
		if r.OK && r.Wall > 0 {
			rate = float64(r.Counters[core.CtrAllocBytes]) / (1 << 20) / r.Wall.Seconds()
		}
		measSrv := float64(0)
		if a := r.Counters[core.CtrAllocBytes]; a > 0 {
			measSrv = 100 * float64(r.Counters[core.CtrSurvivedBytes]) / float64(a)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%d\t%d\t%d->%.1f\n",
			spec.Name, sz.MinHeapBytes>>20, sz.AllocBytes>>20,
			sz.AllocBytes/int64(sz.MinHeapBytes), rate, spec.ObjSize,
			spec.LargePct, spec.SurvivalPct, measSrv)
	}
	w.Flush()
}

// RunTable4 regenerates Table 4 (and provides the data for Figure 5):
// request latency percentiles for the four latency-sensitive workloads
// under G1, LXR, Shenandoah and ZGC at a 1.3× heap.
func RunTable4(opts Options) map[string]map[string]*RunResult {
	opts = opts.WithDefaults()
	out := map[string]map[string]*RunResult{}
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 4: request latency (ms) @1.3x heap")
	fmt.Fprintln(w, "Benchmark\tCollector\tp50\tp90\tp99\tp99.9\tp99.99")
	for _, spec := range opts.selected(workload.LatencySuite()) {
		rate := CalibrateRate(spec, opts)
		out[spec.Name] = map[string]*RunResult{}
		for _, c := range []string{CG1, CLXR, CShen, CZGC} {
			r := RunOne(spec, c, 1.3, rate, opts)
			out[spec.Name][c] = r
			if !r.OK {
				fmt.Fprintf(w, "%s\t%s\t-\t-\t-\t-\t-\n", spec.Name, c)
				continue
			}
			p50, p90, p99, p999, p9999 := latPercentiles(r.Latency)
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				spec.Name, c, p50, p90, p99, p999, p9999)
		}
	}
	w.Flush()
	return out
}

// RunFigure5 renders latency response curves (CSV: one series per
// collector per benchmark — percentile, latency ms) from Table 4 runs.
func RunFigure5(opts Options) {
	opts = opts.WithDefaults()
	data := RunTable4(opts)
	fmt.Fprintln(opts.Out, "\nFigure 5: latency response curves (CSV)")
	fmt.Fprintln(opts.Out, "benchmark,collector,percentile,latency_ms")
	grid := []float64{0, 50, 90, 99, 99.9, 99.99, 99.999}
	for bench, byCol := range data {
		for col, r := range byCol {
			if !r.OK {
				continue
			}
			for _, p := range grid {
				fmt.Fprintf(opts.Out, "%s,%s,%v,%.2f\n", bench, col, p, r.LatencyPercentileMS(p))
			}
		}
	}
}

// RunTable5 regenerates Table 5: geometric-mean 99.99% latency (four
// latency benchmarks) and time (all selected benchmarks) relative to G1,
// at 1.3×, 2× and 6× heaps.
func RunTable5(opts Options) {
	opts = opts.WithDefaults()
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 5: geomean 99.99% latency and time, relative to G1")
	fmt.Fprintln(w, "Heap\tLXR lat\tShen lat\tZGC lat\tLXR time\tShen time\tZGC time")
	for _, factor := range []float64{1.3, 2, 6} {
		relLat := map[string][]float64{}
		for _, spec := range opts.selected(workload.LatencySuite()) {
			rate := CalibrateRate(spec, opts)
			g1 := RunOne(spec, CG1, factor, rate, opts)
			if !g1.OK {
				continue
			}
			_, _, _, _, g1p := latPercentiles(g1.Latency)
			for _, c := range []string{CLXR, CShen, CZGC} {
				r := RunOne(spec, c, factor, rate, opts)
				if r.OK && g1p > 0 {
					_, _, _, _, p := latPercentiles(r.Latency)
					relLat[c] = append(relLat[c], p/g1p)
				}
			}
		}
		relTime := map[string][]float64{}
		for _, spec := range opts.selected(workload.Suite()) {
			g1 := RunOne(spec, CG1, factor, 0, opts)
			if !g1.OK || g1.Wall == 0 {
				continue
			}
			for _, c := range []string{CLXR, CShen, CZGC} {
				r := RunOne(spec, c, factor, 0, opts)
				if r.OK {
					relTime[c] = append(relTime[c], r.Wall.Seconds()/g1.Wall.Seconds())
				}
			}
		}
		fmt.Fprintf(w, "%.1fx\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n", factor,
			stats.GeoMean(relLat[CLXR]), stats.GeoMean(relLat[CShen]), stats.GeoMean(relLat[CZGC]),
			stats.GeoMean(relTime[CLXR]), stats.GeoMean(relTime[CShen]), stats.GeoMean(relTime[CZGC]))
	}
	w.Flush()
}

// RunTable6 regenerates Table 6: throughput at a 2× heap for every
// benchmark — G1 time in ms and LXR/Shenandoah/ZGC relative to G1.
func RunTable6(opts Options) map[string]map[string]*RunResult {
	opts = opts.WithDefaults()
	out := map[string]map[string]*RunResult{}
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 6: throughput @2x heap (time relative to G1; lower is better)")
	fmt.Fprintln(w, "Benchmark\tG1 ms\tLXR\tShen.\tZGC")
	rel := map[string][]float64{}
	for _, spec := range opts.selected(workload.Suite()) {
		out[spec.Name] = map[string]*RunResult{}
		g1 := RunOne(spec, CG1, 2, 0, opts)
		out[spec.Name][CG1] = g1
		row := fmt.Sprintf("%s\t%d", spec.Name, g1.Wall.Milliseconds())
		for _, c := range []string{CLXR, CShen, CZGC} {
			r := RunOne(spec, c, 2, 0, opts)
			out[spec.Name][c] = r
			if !r.OK || !g1.OK || g1.Wall == 0 {
				row += "\t-"
				continue
			}
			ratio := r.Wall.Seconds() / g1.Wall.Seconds()
			rel[c] = append(rel[c], ratio)
			row += fmt.Sprintf("\t%.3f", ratio)
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "geomean\t\t%.3f\t%.3f\t%.3f\n",
		stats.GeoMean(rel[CLXR]), stats.GeoMean(rel[CShen]), stats.GeoMean(rel[CZGC]))
	w.Flush()
	return out
}

// RunTable7 regenerates Table 7: LXR's breakdown at a 2× heap —
// concurrency ablations, pause statistics, barrier statistics and
// reclamation shares.
func RunTable7(opts Options) {
	opts = opts.WithDefaults()
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 7: LXR breakdown @2x heap")
	fmt.Fprintln(w, "Benchmark\tms\t-SATB\t-LD\tSTW\tGC/s\tp50ms\tp95ms\tSATB%\t!Lazy%\tInc/ms\to/h\tYoung%\tOld%\tSATB%%\tStuck%\tYC%")
	for _, spec := range opts.selected(workload.Suite()) {
		r := RunOne(spec, CLXR, 2, 0, opts)
		if !r.OK || r.Wall == 0 {
			continue
		}
		ratio := func(c string) float64 {
			rr := RunOne(spec, c, 2, 0, opts)
			if !rr.OK {
				return 0
			}
			return rr.Wall.Seconds() / r.Wall.Seconds()
		}
		noSATB, noLD, stw := ratio(CLXRNoSATB), ratio(CLXRNoLD), ratio(CLXRSTW)

		// Barrier overhead: Immix with the (discarded) field-logging
		// barrier vs Immix without, same heap.
		imx := RunOne(spec, CImmix, 2, 0, opts)
		imxWB := RunOne(spec, CImmixWB, 2, 0, opts)
		oh := float64(0)
		if imx.OK && imxWB.OK && imx.Wall > 0 {
			oh = imxWB.Wall.Seconds() / imx.Wall.Seconds()
		}

		c := r.Counters
		pauses := float64(c[core.CtrPauses])
		persec := pauses / r.Wall.Seconds()
		satbPct := pct(c[core.CtrPausesSATB], c[core.CtrPauses])
		lazyPct := pct(c[core.CtrPausesLazy], c[core.CtrPauses])
		incPerMS := float64(c[core.CtrIncrements]) / (float64(r.Wall) / float64(time.Millisecond))

		allocObj := c[core.CtrAllocObjects]
		promoted := c[core.CtrPromoted]
		deadYoung := allocObj - promoted
		deadOld := c[core.CtrDeadOld]
		deadSATB := c[core.CtrDeadSATB]
		totalDead := deadYoung + deadOld + deadSATB
		yc := float64(0)
		if fb := c[core.CtrYoungFreeBlk]; fb > 0 {
			yc = 100 * float64(c[core.CtrYoungEvacBytes]) / float64(fb*32<<10)
		}
		stuck := pct(c[core.CtrStuck], promoted+1)

		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.1f\t%.2f\t%.2f\t%.0f\t%.0f\t%.0f\t%.3f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			spec.Name, r.Wall.Milliseconds(), noSATB, noLD, stw,
			persec, r.PausePercentile(50), r.PausePercentile(95),
			satbPct, lazyPct, incPerMS, oh,
			pct(deadYoung, totalDead), pct(deadOld, totalDead), pct(deadSATB, totalDead),
			stuck, yc)
	}
	w.Flush()
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// LBORow is one point of Figure 7.
type LBORow struct {
	Collector string
	Factor    float64
	TimeLBO   float64 // Fig 7a: wall-clock overhead vs ideal
	CyclesLBO float64 // Fig 7b: total-cycles overhead vs ideal
}

// RunFigure7 regenerates Figure 7: the lower-bound-overhead analysis.
// For each benchmark and heap factor, the baseline approximating the
// ideal collector is the minimum over all collectors of (metric − its
// easily-measured STW cost); each collector's LBO is metric/baseline
// (Cai et al. 2022). Cycles integrate work across all threads: mutator
// busy time plus collector work including concurrent threads.
func RunFigure7(opts Options, factors []float64) []LBORow {
	opts = opts.WithDefaults()
	if len(factors) == 0 {
		factors = []float64{2, 3, 4, 6}
	}
	collectors := []string{CSerial, CParallel, CSemiSpace, CImmix, CG1, CShen, CZGC, CLXR}
	var rows []LBORow
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 7: lower bound overhead (LBO) vs heap size")
	fmt.Fprintln(w, "Collector\tHeap\tTime LBO\tCycles LBO")
	for _, factor := range factors {
		timeOver := map[string][]float64{}
		cycOver := map[string][]float64{}
		for _, spec := range opts.selected(workload.Suite()) {
			type metric struct{ t, cyc, stwT, stwC float64 }
			ms := map[string]metric{}
			baseT, baseC := 0.0, 0.0
			first := true
			for _, c := range collectors {
				r := RunOne(spec, c, factor, 0, opts)
				if !r.OK || r.Wall == 0 {
					continue
				}
				stw := r.TotalSTW().Seconds()
				cyc := (r.MutBusy + r.GCWork).Seconds()
				m := metric{t: r.Wall.Seconds(), cyc: cyc, stwT: stw, stwC: r.GCWork.Seconds()}
				ms[c] = m
				if bt := m.t - m.stwT; first || bt < baseT {
					baseT = bt
				}
				if bc := m.cyc - m.stwC; first || bc < baseC {
					baseC = bc
				}
				first = false
			}
			for c, m := range ms {
				if baseT > 0 {
					timeOver[c] = append(timeOver[c], m.t/baseT)
				}
				if baseC > 0 {
					cycOver[c] = append(cycOver[c], m.cyc/baseC)
				}
			}
		}
		for _, c := range collectors {
			if len(timeOver[c]) == 0 {
				continue
			}
			row := LBORow{Collector: c, Factor: factor,
				TimeLBO: stats.GeoMean(timeOver[c]), CyclesLBO: stats.GeoMean(cycOver[c])}
			rows = append(rows, row)
			fmt.Fprintf(w, "%s\t%.1fx\t%.3f\t%.3f\n", c, factor, row.TimeLBO, row.CyclesLBO)
		}
	}
	w.Flush()
	return rows
}

// RunSensitivity regenerates the §5.4 sensitivity study that is
// runtime-configurable on this substrate: the survival-threshold
// trigger, on the fastest-allocating workload. Block size and RC width
// are compile-time geometry here (as in the paper's implementation,
// where each variant is a separate build); see EXPERIMENTS.md.
func RunSensitivity(opts Options) {
	opts = opts.WithDefaults()
	spec, _ := workload.ByName("lusearch")
	sz := opts.Scale.Size(spec)
	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Sensitivity (5.4): survival threshold sweep, lusearch @2x")
	fmt.Fprintln(w, "Threshold\tTime(ms)\tPauses")
	for _, th := range []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20} {
		p := core.New(core.Config{HeapBytes: 2 * sz.MinHeapBytes, GCThreads: opts.GCThreads, SurvivalThresholdBytes: th})
		v := vm.New(p, 8)
		br := workload.RunBatch(v, sz)
		pauses := v.Stats.PauseCount()
		v.Shutdown()
		fmt.Fprintf(w, "%dMB\t%d\t%d\n", th>>20, br.Wall.Milliseconds(), pauses)
	}
	w.Flush()
}
