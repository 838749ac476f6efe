package harness

import (
	"fmt"
	"sort"
	"text/tabwriter"
	"time"

	"lxr/internal/telemetry"
	"lxr/internal/vm"
	"lxr/internal/workload"
)

// The mutscale experiment sweeps mutator count at fixed per-mutator
// pressure and reports how pause time, time-to-safepoint and throughput
// scale. A runtime whose safepoint rendezvous, root scan or pause
// bookkeeping is O(mutators) shows pause/TTSP curves that grow with the
// count; the sharded rendezvous and parallel root scan are meant to
// keep them flat (within noise) from 8 to 1024 mutators.

// MutScaleCounts is the swept mutator-count axis.
func MutScaleCounts() []int { return []int{8, 64, 256, 1024} }

// MutScaleCollectors is the collector set mutscale runs: the five
// collector families (ZGC shares Shenandoah's concurrent-cycle pause
// structure here, so Shenandoah covers that family's rendezvous
// behavior).
func MutScaleCollectors() []string {
	return []string{CLXR, CG1, CShen, CParallel, CImmix}
}

const (
	// The heap is sized once — for the 1024-point's structural floor
	// (1024 mutators × 32 KB block-in-hand is 32 MB of heap that is
	// simply *held*, doubled again for the semispace collectors' copy
	// reserve) — and then kept constant across the whole sweep. Every
	// collector here triggers on a fraction of the heap (G1's young
	// target is budget/4, Shenandoah fires at 70% used, the STW plans
	// at half budget, LXR's epoch budget is capped at heap/2), so a
	// heap that grew with mutator count would grow per-pause work
	// linearly with N for reasons that have nothing to do with the
	// rendezvous. Fixing the heap fixes the collector physics; the only
	// thing that varies between sweep points is the thread count — the
	// runtime's O(mutators) terms are the residual signal.
	msHeap = 160 << 20

	// Total request stream (scaled by Scale.RequestDiv) and total
	// arrival rate, both fixed across the sweep and divided evenly
	// among the mutators. Holding the totals fixed keeps every
	// configuration sleep-dominated: the instantaneous token-holder
	// population tracks the (constant) load, not the thread count, so
	// a pause request never queues behind a thousand busy threads —
	// which would measure CPU oversubscription, not the rendezvous.
	msRequestsRaw = 6400000
	msTotalRate   = 28000.0

	msObjsPerReq = 32
	// Total retained-object budget, divided per mutator. Dividing both
	// this and the arrival rate by the count makes each retained
	// object's wall-clock lifetime (chain length × request interval =
	// msTotalRetained / msTotalRate) independent of the mutator count,
	// so the promotion/decrement mix the collectors see is the same at
	// every sweep point — a per-mutator-fixed chain would let retained
	// objects at high counts outlive epochs, get promoted, and die as
	// mature objects needing decrement cascades the 8-mutator point
	// never pays.
	msTotalRetained = 16384
)

// flooredRatio renders val/base with both clamped to a 1 ms noise
// floor: TTSP at the 8-mutator point sits at the measurement floor
// (~µs), and a raw ratio against a µs-scale denominator reads
// scheduling jitter as a scaling trend. Quantities below the floor
// print as flat (1.00).
func flooredRatio(val, base float64) string {
	const floorMS = 1.0
	if val < floorMS {
		val = floorMS
	}
	if base < floorMS {
		base = floorMS
	}
	return fmt.Sprintf("%.2f", val/base)
}

// TTSPPercentileMS returns the p-th percentile time-to-safepoint in
// milliseconds, computed exactly from the recorded pauses.
func (r *RunResult) TTSPPercentileMS(p float64) float64 {
	if len(r.Pauses) == 0 {
		return 0
	}
	ts := make([]time.Duration, len(r.Pauses))
	for i, pa := range r.Pauses {
		ts[i] = pa.TTSP
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	idx := int(p / 100 * float64(len(ts)))
	if idx >= len(ts) {
		idx = len(ts) - 1
	}
	return float64(ts[idx]) / float64(time.Millisecond)
}

// RunMutScale runs the mutator-count sweep for every collector and
// prints the scaling table. Results are recorded (opts.Record) under
// Bench "muts<count>".
func RunMutScale(opts Options) []*RunResult {
	opts = opts.WithDefaults()
	totalReqs := msRequestsRaw / opts.Scale.RequestDiv
	var rows []*RunResult
	for _, n := range MutScaleCounts() {
		reqPerMut := totalReqs / n
		if reqPerMut < 20 {
			reqPerMut = 20
		}
		retain := msTotalRetained / n
		if retain < 1 {
			retain = 1
		}
		cfg := workload.MutScaleConfig{
			Mutators:       n,
			RequestsPerMut: reqPerMut,
			RatePerMut:     msTotalRate / float64(n),
			ObjsPerReq:     msObjsPerReq,
			RetainLen:      retain,
		}
		for _, c := range MutScaleCollectors() {
			rows = append(rows, runMutScaleOne(c, n, cfg, opts))
		}
	}

	w := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mutscale: pause/TTSP/throughput vs mutator count (fixed per-mutator pressure)")
	fmt.Fprintln(w, "Collector\tmutators\theapMB\tQPS\tpauses\tpause50ms\tpause99ms\tTTSP99ms\tp99x8\tttsp99x8")
	base := map[string]*RunResult{}
	for _, r := range rows {
		if !r.OK {
			fmt.Fprintf(w, "%s\t%s\t-\n", r.Collector, r.Bench)
			continue
		}
		var n int
		fmt.Sscanf(r.Bench, "muts%d", &n)
		if n == MutScaleCounts()[0] {
			base[r.Collector] = r
		}
		p99 := r.PausePercentile(99)
		t99 := r.TTSPPercentileMS(99)
		p99x, t99x := "-", "-"
		if b := base[r.Collector]; b != nil && b != r {
			p99x = flooredRatio(p99, b.PausePercentile(99))
			t99x = flooredRatio(t99, b.TTSPPercentileMS(99))
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%d\t%.3f\t%.3f\t%.3f\t%s\t%s\n",
			r.Collector, n, r.HeapBytes>>20, r.QPS, len(r.Pauses),
			r.PausePercentile(50), p99, t99, p99x, t99x)
	}
	w.Flush()
	return rows
}

// runMutScaleOne runs one (collector, mutator-count) cell.
func runMutScaleOne(collector string, nMut int, cfg workload.MutScaleConfig, opts Options) *RunResult {
	res := &RunResult{Bench: fmt.Sprintf("muts%d", nMut), Collector: collector, HeapBytes: msHeap}
	if opts.Record != nil {
		defer func() { opts.Record(res) }()
	}
	plan := newPlan(collector, msHeap, opts)
	if plan == nil {
		return res
	}
	v := vm.New(plan, 8)
	defer v.Shutdown() // idempotent; the explicit call below is first
	rr := workload.RunMutScale(v, cfg)
	res.Wall = rr.Wall
	res.QPS = rr.QPS
	res.Latency = rr.Latency
	res.OK = !rr.Failed
	v.Shutdown()
	res.Pauses = v.Stats.Pauses()
	res.PauseHist = v.Stats.PauseHistograms()
	res.MMU = telemetry.MMU(pauseIntervals(res.Pauses, rr.Start), res.Wall, nil)
	res.Counters = v.Stats.Counters()
	res.GCWork = v.Stats.GCWork()
	res.ConcWork = v.Stats.ConcurrentWork()
	res.MutBusy = v.Stats.MutatorBusy()
	if t, ok := plan.(gcTelemetry); ok {
		res.ConcWorkers = t.ConcWorkers()
		res.WorkerStats = t.GCWorkerStats()
		res.Loans, res.LoanItems = t.GCLoanStats()
	}
	return res
}
