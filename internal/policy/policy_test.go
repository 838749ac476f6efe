package policy_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"lxr/internal/policy"
	"lxr/internal/trace"
)

// --- decay predictor (absorbed from the old internal/trigger) ---------------

func TestDecayPredictorBiasHigh(t *testing.T) {
	p := policy.NewDecayPredictor(0.1)
	p.Observe(0.5) // above prediction: react fast (3/4 weight)
	if got := p.Predict(); got < 0.39 || got > 0.41 {
		t.Fatalf("fast-direction update got %v", got)
	}
	p.Observe(0.0) // below: forget slowly (1/4 weight)
	if got := p.Predict(); got < 0.29 || got > 0.31 {
		t.Fatalf("slow-direction update got %v", got)
	}
}

// --- LXR: RCPacer -----------------------------------------------------------

// staticLimit is the historical allocation budget: survival threshold
// over the (floored) survival prediction, capped at half the heap —
// exactly what core.recomputeAllocLimit used to compute.
func staticLimit(thresholdBytes int64, pred float64, heapBytes int) int64 {
	if pred < 0.005 {
		pred = 0.005
	}
	limit := int64(float64(thresholdBytes) / pred)
	if max := int64(heapBytes) / 2; limit > max {
		limit = max
	}
	return limit
}

func newRC() *policy.RCPacer {
	return policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes:              1 << 30, // roomy: the cap stays out of the way
		SurvivalThresholdBytes: 1 << 20,
	})
}

// TestRCPacerStaticReplay replays a synthetic allocation/survival trace
// and checks the trigger sequence matches the historical RC trigger
// step by step.
func TestRCPacerStaticReplay(t *testing.T) {
	p := newRC()
	pred := 0.15 // the historical predictor's initial value
	trace := []struct {
		alloc, survived int64
	}{
		{8 << 20, 8 << 20},  // survival 1.0: epochs must shorten
		{4 << 20, 1 << 20},  // survival 0.25
		{16 << 20, 0},       // survival 0: epochs stretch (slowly, bias high)
		{16 << 20, 1 << 18}, // light survival
	}
	for i, e := range trace {
		want := staticLimit(1<<20, pred, 1<<30)
		if got := p.AllocLimit(); got != want {
			t.Fatalf("epoch %d: limit %d, historical %d", i, got, want)
		}
		// The limit IS the due boundary.
		if p.Due(want - 1) {
			t.Fatalf("epoch %d: fired below the budget", i)
		}
		if !p.Due(want) {
			t.Fatalf("epoch %d: did not fire at the budget", i)
		}
		p.ObserveEpoch(e.alloc, e.survived)
		// Historical predictor update (1:3/3:1, bias high).
		r := float64(e.survived) / float64(e.alloc)
		if r > pred {
			pred = 0.75*r + 0.25*pred
		} else {
			pred = 0.25*r + 0.75*pred
		}
	}
}

func TestRCPacerSurvivalClamps(t *testing.T) {
	p := newRC()
	p.ObserveEpoch(100, 500) // >100% clamps to 1
	want := staticLimit(1<<20, 0.75*1+0.25*0.15, 1<<30)
	if got := p.AllocLimit(); got != want {
		t.Fatalf("clamped survival: limit %d, want %d", got, want)
	}
	before := p.AllocLimit()
	p.ObserveEpoch(0, 0) // ignored
	if p.AllocLimit() != before {
		t.Fatal("zero-allocation epoch must not move the prediction")
	}
}

func TestRCPacerHeapCap(t *testing.T) {
	p := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes: 1 << 20, SurvivalThresholdBytes: 1 << 20,
	})
	if got := p.AllocLimit(); got != 1<<19 {
		t.Fatalf("limit %d not capped at half the heap", got)
	}
}

// TestRCPacerSATBVotes walks the cycle vote through its conditions: yes
// until a trace has been measured, then predicted yield (the rate past
// traces freed at, times the bytes allocated since the last snapshot)
// against 5% of the heap.
func TestRCPacerSATBVotes(t *testing.T) {
	const heap = 1 << 30
	p := newRC()
	p.ObserveEpoch(heap/4, 0)
	if !p.CycleDue(false) {
		t.Fatal("no trace measured yet: the vote must be yes")
	}
	p.ObserveTrace(heap / 16) // seeds the rate: 1/4
	p.ObserveEpoch(heap/8, 0) // predicted 1/32 of the heap: under 5%
	if p.CycleDue(false) {
		t.Fatal("predicted yield of 3.1% of the heap must not trace")
	}
	p.ObserveEpoch(heap/8, 0) // predicted 1/16: over
	if !p.CycleDue(false) {
		t.Fatal("predicted yield of 6.25% of the heap must trace")
	}
	// That trace freed nothing over an interval of heap/4: the rate
	// forgets slowly, 1/4 -> 3/16, so the vote now sits at
	// 0.05*16/3 = 0.267 of the heap allocated.
	p.ObserveTrace(0)
	p.ObserveEpoch(heap/4, 0)
	if p.CycleDue(false) {
		t.Fatal("rate 3/16 over a quarter of the heap is 4.7%: no trace")
	}
	p.ObserveEpoch(heap/32, 0)
	if !p.CycleDue(false) {
		t.Fatal("rate 3/16 over 9/32 of the heap is 5.3%: trace")
	}
	// A snapshot with no allocation behind it carries no rate.
	if !p.CycleDue(true) {
		t.Fatal("a forced vote must be yes")
	}
	p.ObserveTrace(1 << 20)
	p.ObserveEpoch(heap/4, 0)
	if p.CycleDue(false) {
		t.Fatal("a zero-allocation interval moved the rate")
	}
}

// votePause is one pause as the vote sees it: the bytes its epoch
// allocated, and whether it was an explicit collection or an emergency.
type votePause struct {
	alloc  int64
	forced bool
}

// TestRCPacerVoteExhaustive enumerates every sequence of voteDepth
// pauses over {no allocation, heap/8, heap/2} x {ordinary, forced}, each
// trace freeing a fixed share of its interval, and checks the vote after
// every step, the way a bounded model checker walks a ladder program
// (PAPERS.md, ESBMC-GraphPLC).
func TestRCPacerVoteExhaustive(t *testing.T) {
	const heap = 20 << 16 // every sum of allocations is a multiple of 20
	var alphabet []votePause
	for _, a := range []int64{0, heap / 8, heap / 2} {
		alphabet = append(alphabet, votePause{a, false}, votePause{a, true})
	}
	for _, yield := range []int64{0, 20, 2} { // a trace frees nothing, or 1/20 or 1/2 of its interval
		seq := make([]votePause, 0, voteDepth)
		var walk func()
		walk = func() {
			if len(seq) == voteDepth { // a run checks every prefix on its way
				checkVoteRun(t, heap, yield, seq)
				return
			}
			for _, s := range alphabet {
				seq = append(seq, s)
				walk()
				seq = seq[:len(seq)-1]
			}
		}
		walk()
	}
	// The cap needs a longer run: futile traces come MaxTraceEpochs apart.
	p := policy.NewRCPacer(policy.RCPacerConfig{HeapBytes: heap, SurvivalThresholdBytes: heap / 8})
	for i, last := 1, 0; i <= 200; i++ {
		p.ObserveEpoch(heap/8, 0)
		if due := p.CycleDue(false); due != (last == 0 || i-last == policy.MaxTraceEpochs) {
			t.Fatalf("epoch %d, %d after the last snapshot: voted %v", i, i-last, due)
		} else if due {
			p.ObserveTrace(0)
			last = i
		}
	}
}

// checkVoteRun replays seq on a fresh pacer, finishing every trace in its
// own pause with 1/yield of its interval freed (nothing when yield is 0).
func checkVoteRun(t *testing.T, heap, yield int64, seq []votePause) {
	p := policy.NewRCPacer(policy.RCPacerConfig{HeapBytes: int(heap), SurvivalThresholdBytes: heap / 8})
	thr := policy.WastageFraction * float64(heap)
	var since, freed int64 // allocated since the last snapshot; what a trace now would free
	measured := false
	lastGap, gap := 0, 0 // epochs between the last two snapshots, and since the last
	for i, s := range seq {
		p.ObserveEpoch(s.alloc, 0)
		since += s.alloc
		gap++
		if yield > 0 {
			freed = since / yield
		}
		// With a constant yield the measured rate is the yield, so the
		// vote is freed against 5% of the heap: yes at the smallest gap
		// that reaches it (a NaN, infinite or negative rate could not
		// agree); exactly on the threshold the rate's last bit decides.
		due, want := p.CycleDue(s.forced), s.forced || !measured || float64(freed) >= thr
		if due != want && (s.forced || !measured || float64(freed) != thr) {
			t.Fatalf("yield 1/%d, %+v: step %d voted %v, want %v (since %d)", yield, seq, i, due, want, since)
		}
		if !due {
			continue
		}
		p.ObserveTrace(freed)
		if yield == 0 && measured && !s.forced && gap < lastGap {
			t.Fatalf("yield 0, %+v: step %d traced after %d epochs, the trace before it after %d", seq, i, gap, lastGap)
		}
		measured = measured || since > 0
		lastGap, gap, since, freed = gap, 0, 0, 0
	}
}

// TestRCPacerReportsToTracer: every due decision — and nothing else —
// lands on the tracer's policy lane under the kind name the benchmark's
// ledger looks up, with the signal on the firing side of the threshold.
func TestRCPacerReportsToTracer(t *testing.T) {
	const heap = 1 << 30
	tr := trace.New(trace.Config{ShardCap: 64})
	p := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes: heap, SurvivalThresholdBytes: 1 << 20, Tracer: tr,
	})
	limit := p.AllocLimit()
	p.Due(limit - 1) // not due
	p.Due(limit)     // rc-survival
	p.ObserveEpoch(heap/2, 0)
	p.CycleDue(false)        // satb-clean: nothing measured yet, one epoch in
	p.ObserveTrace(heap / 8) // rate 1/4
	p.ObserveEpoch(heap/8, 0)
	p.CycleDue(false) // not due: 3.1% predicted
	p.CycleDue(true)  // satb-clean: forced
	p.ObserveTrace(heap / 32)
	p.ObserveEpoch(heap/2, 0)
	p.CycleDue(false) // satb-wastage: rate 1/4 x heap/2
	p.ObserveTrace(0) // rate 3/16: the vote sits at 27% of the heap
	for i := 0; i < policy.MaxTraceEpochs; i++ {
		p.ObserveEpoch(heap/256, 0)
		p.CycleDue(false) // satb-clean, on the 32nd epoch only
	}
	want := []struct {
		kind           string
		signal, thresh float64
	}{
		{"rc-survival", float64(limit), float64(limit)},
		{"satb-clean", 1, 0},
		{"satb-clean", 0, 0},
		{"satb-wastage", heap / 8, policy.WastageFraction * heap},
		{"satb-clean", policy.MaxTraceEpochs, 0},
	}
	evs := tr.Drain()[trace.ShardPolicy].Events
	if len(evs) != len(want) {
		t.Fatalf("%d instants on the policy lane, want %d", len(evs), len(want))
	}
	for i, w := range want {
		ev := evs[i]
		s, thr := math.Float64frombits(ev.Arg), math.Float64frombits(ev.Arg2)
		if ev.Name != tr.Intern("trigger:"+w.kind) || s != w.signal || thr != w.thresh {
			t.Errorf("instant %d: name %d signal %v threshold %v, want trigger:%s %v %v",
				i, ev.Name, s, thr, w.kind, w.signal, w.thresh)
		}
	}
}

// TestStressPacerConcurrency interleaves what touches the pacer in a
// real run — safepoint-path Due calls from many mutators against the
// pause coordinator's observations and cycle vote — under -race, with a
// tracer attached so the reporting path is covered too.
func TestStressPacerConcurrency(t *testing.T) {
	p := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes: 1 << 28, SurvivalThresholdBytes: 1 << 20,
		Tracer: trace.New(trace.Config{ShardCap: 64}),
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p.Due(int64(i % (1 << 24)))
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		p.ObserveEpoch(1<<20, int64(i%10)<<16)
		if p.CycleDue(i%97 == 0) {
			p.ObserveTrace(int64(i%7) << 16)
		}
	}
	stop.Store(true)
	wg.Wait()
	if l := p.AllocLimit(); l <= 0 || l > 1<<27 {
		t.Fatalf("allocation budget %d outside (0, half the heap]", l)
	}
}
