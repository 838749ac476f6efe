package main

import (
	"fmt"
	"os"
	"time"
)

// showSubWindows (-subwindows) prints each sub-window's figures to
// standard error: the way to see whether a metric's spread between runs
// is drift inside a run, a disturbed stretch, or the workload itself.
var showSubWindows bool

// metricDef names a metric the way BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share
}

// endToEndDefs are what a user of the collector sees. Every later
// performance claim in this repo is one of these on one of the
// workloads BENCHMARK.json lists.
//
// The bounds are 25 %, the widest the benchmark contract allows, for
// everything that is a time: the box this was built on changes speed by
// a factor of up to two for minutes at a time (README.md, "Noise
// floor"), and a set of ten runs that straddles such a change spreads by
// up to 21 %. The GC's CPU share, which ten runs agree on to 1-5 %, gets
// 20 %, and the footprint, which they agree on to 0.4 %, gets 10 %.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"throughput_mb_s", "MB/s", "higher", 0.25},
	{"pause_p50_ms", "ms", "lower", 0.25},
	{"stw_frac", "ratio", "lower", 0.25},
	{"gc_cpu_frac", "ratio", "lower", 0.20},
	{"footprint_frac", "ratio", "lower", 0.10},
}

// perLayerDefs are the ledger: one layer each, traced run only.
var perLayerDefs = []metricDef{
	{name: "bench.req_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.pause_p95_ms", unit: "ms", better: "lower"},
	{name: "bench.gen_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.req_p999_ms", unit: "ms", better: "lower"},
	{name: "bench.req_max_ms", unit: "ms", better: "lower"},
	{name: "bench.check_failures", unit: "count", better: "lower"},
	{name: "bench.script_hash", unit: "hash", better: "lower"},

	{name: "immix.alloc_small_ns_p50", unit: "ns", better: "lower"},
	{name: "immix.alloc_small_ns_p99", unit: "ns", better: "lower"},
	{name: "immix.alloc_large_ns_p50", unit: "ns", better: "lower"},
	{name: "immix.alloc_slow_share", unit: "ratio", better: "lower"},
	{name: "immix.inuse_frac_max", unit: "ratio", better: "lower"},
	{name: "immix.free_blocks_min", unit: "count", better: "higher"},
	{name: "immix.recycled_blocks_p50", unit: "count", better: "lower"},
	{name: "immix.los_blocks_p50", unit: "count", better: "lower"},
	{name: "immix.los_byte_share", unit: "ratio", better: "lower"},

	{name: "core.store_ns_p50", unit: "ns", better: "lower"},
	{name: "core.store_ns_p99", unit: "ns", better: "lower"},
	{name: "core.barrier_slow_per_kstore", unit: "1/k", better: "lower"},

	{name: "core.phase_flush", unit: "ms/s", better: "lower"},
	{name: "core.phase_decs", unit: "ms/s", better: "lower"},
	{name: "core.phase_satb-seed", unit: "ms/s", better: "lower"},
	{name: "core.phase_increments", unit: "ms/s", better: "lower"},
	{name: "core.phase_resolve", unit: "ms/s", better: "lower"},
	{name: "core.phase_root-decs", unit: "ms/s", better: "lower"},
	{name: "core.phase_reclaim", unit: "ms/s", better: "lower"},
	{name: "core.phase_sweep", unit: "ms/s", better: "lower"},
	{name: "core.phase_satb-final", unit: "ms/s", better: "lower"},
	{name: "core.phase_pacer", unit: "ms/s", better: "lower"},
	{name: "core.phase_dec-submit", unit: "ms/s", better: "lower"},
	{name: "core.pause_rc_ms_p50", unit: "ms", better: "lower"},
	{name: "core.pause_rc_mark_ms_p50", unit: "ms", better: "lower"},
	{name: "core.phase_sum_over_pause", unit: "ratio", better: "higher"},

	{name: "core.survival_frac", unit: "ratio", better: "lower"},
	{name: "core.young_evac_frac", unit: "ratio", better: "higher"},
	{name: "core.dead_satb_share", unit: "ratio", better: "lower"},
	{name: "core.pauses_lazy_share", unit: "ratio", better: "lower"},
	{name: "core.pauses_satb_share", unit: "ratio", better: "lower"},
	{name: "core.stuck_per_kpromoted", unit: "1/k", better: "lower"},
	{name: "core.increments_per_pause", unit: "count", better: "lower"},
	{name: "core.defensive_skips", unit: "count", better: "lower"},

	{name: "conctrl.conc_work_s", unit: "s", better: "lower"},
	{name: "conctrl.quantum_count", unit: "count", better: "lower"},
	{name: "conctrl.quantum_ms_p50", unit: "ms", better: "lower"},
	{name: "gcwork.gc_work_s", unit: "s", better: "lower"},
	{name: "gcwork.loans", unit: "count", better: "lower"},
	{name: "gcwork.loan_items", unit: "count", better: "higher"},
	{name: "gcwork.loan_ms_p50", unit: "ms", better: "lower"},
	{name: "gcwork.interrupts", unit: "count", better: "lower"},
	{name: "gcwork.pause_items_imbalance", unit: "ratio", better: "lower"},

	{name: "vm.ttsp_p50_ms", unit: "ms", better: "lower"},
	{name: "vm.ttsp_p95_ms", unit: "ms", better: "lower"},
	{name: "vm.pause_count", unit: "count", better: "lower"},
	{name: "vm.mutator_busy_s", unit: "s", better: "lower"},
	{name: "vm.mmu_10ms", unit: "ratio", better: "higher"},
	{name: "vm.mmu_50ms", unit: "ratio", better: "higher"},

	{name: "policy.trigger_count", unit: "count", better: "lower"},
	{name: "policy.satb_cycles", unit: "count", better: "lower"},

	{name: "trace.events", unit: "count", better: "lower"},
	{name: "trace.lost", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},

	{name: "fastbench.alloc_small_ns", unit: "ns", better: "lower"},
	{name: "fastbench.alloc_medium_ns", unit: "ns", better: "lower"},
	{name: "fastbench.alloc_large_ns", unit: "ns", better: "lower"},
	{name: "fastbench.store_fast_ns", unit: "ns", better: "lower"},
	{name: "fastbench.store_slow_ns", unit: "ns", better: "lower"},
	{name: "fastbench.linescan_ns", unit: "ns", better: "lower"},
}

// endToEnd computes the window's end-to-end metrics, except setup_s,
// which belongs to the invocation. Each is taken from the figures of the
// window's two-second sub-windows (its own percentile, its own byte
// count, its own CPU accounting): a time from the best of them, a ratio
// of two times measured together from their median (see pick).
//
// stw_frac is such a ratio only in a closed loop, where a slow host
// stretches the pauses and the time between them alike. In an open loop
// the arrivals, and so the pauses per second, are fixed by the schedule,
// and the pause share rises and falls with the host's speed like any
// other time.
func (w *window) endToEnd() map[string]figure {
	r := w.run
	nWin := len(w.lat)
	out := map[string]figure{}

	out["req_p50_ms"] = windowed(w.lat, 50, 1e-6, lowest)

	var txns int
	for _, l := range w.lat {
		txns += len(l)
	}
	durs := make([][]int64, nWin)
	used := make([][]int64, nWin)
	stw := make([]float64, nWin)
	thr := make([]float64, nWin)
	gcCPU := make([]float64, nWin)
	for _, p := range w.pauses {
		k := r.subWindowOf(p.Start)
		durs[k] = append(durs[k], int64(p.Dur))
		stw[k] += float64(p.Dur + p.TTSP)
	}
	for _, h := range w.heap {
		k := r.subWindowOf(r.start.Add(h.at))
		used[k] = append(used[k], int64(h.inUse+h.los))
	}
	for k := 0; k < nWin; k++ {
		span := subWindow
		if k == nWin-1 {
			span = w.wall - time.Duration(k)*subWindow // the last one ends when the clients do
		}
		stw[k] /= float64(span)
		thr[k] = float64(w.bytes[k]) / 1e6 / span.Seconds()
		// GCWork already includes the concurrent thread's share.
		busy := float64(w.ticks[k+1].mutBusy - w.ticks[k].mutBusy)
		gc := float64(w.ticks[k+1].gcWork - w.ticks[k].gcWork)
		gcCPU[k] = gc / (busy + gc)
	}
	if showSubWindows {
		fmt.Fprintf(os.Stderr, "%s sub-windows: k txns req_p50_ms req_p99_ms MB/s pauses pause_p50_ms stw gc_cpu footprint\n", r.spec.name)
		one := func(xs []int64, p, scale float64) float64 { return pooled(xs, p, scale).v }
		for k := 0; k < nWin; k++ {
			fmt.Fprintf(os.Stderr, "  %2d %6d %.4f %.4f %.1f %4d %.4f %.4f %.4f %.3f\n", k, len(w.lat[k]),
				one(w.lat[k], 50, 1e-6), one(w.lat[k], 99, 1e-6), thr[k], len(durs[k]), one(durs[k], 50, 1e-6),
				stw[k], gcCPU[k], one(used[k], 50, blocksToBytes(1)/float64(r.spec.heapBytes)))
		}
	}
	out["throughput_mb_s"] = exact(highest.over(thr), txns)
	out["pause_p50_ms"] = windowed(durs, 50, 1e-6, lowest)
	stwPick := middle
	if r.spec.open {
		stwPick = lowest
	}
	out["stw_frac"] = exact(stwPick.over(stw), len(w.pauses))
	out["gc_cpu_frac"] = exact(middle.over(gcCPU), len(w.pauses))
	out["footprint_frac"] = windowed(used, 50, blocksToBytes(1)/float64(r.spec.heapBytes), middle)
	return out
}
