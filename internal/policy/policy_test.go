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
	p := policy.NewDecayPredictor(0.1, true)
	p.Observe(0.5) // above prediction: react fast (3/4 weight)
	if got := p.Predict(); got < 0.39 || got > 0.41 {
		t.Fatalf("fast-direction update got %v", got)
	}
	p.Observe(0.0) // below: forget slowly (1/4 weight)
	if got := p.Predict(); got < 0.29 || got > 0.31 {
		t.Fatalf("slow-direction update got %v", got)
	}
}

func TestDecayPredictorBiasLow(t *testing.T) {
	p := policy.NewDecayPredictor(1.0, false)
	p.Observe(0.0) // below prediction is the conservative direction
	if got := p.Predict(); got > 0.26 {
		t.Fatalf("low-bias should react fast downward, got %v", got)
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
		HeapBlocks:             1000,
		CleanBlockThreshold:    16,
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
		if p.Due(want-1, 0) {
			t.Fatalf("epoch %d: fired below the budget", i)
		}
		if !p.Due(want, 0) {
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

func TestRCPacerIncrementThreshold(t *testing.T) {
	p := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes:              1 << 30,
		SurvivalThresholdBytes: 1 << 30, IncrementThreshold: 100,
	})
	if !p.Due(0, 150) {
		t.Fatal("increment threshold must trigger")
	}
	p2 := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes:              1 << 50,
		SurvivalThresholdBytes: 1 << 20,
	})
	if p2.Due(0, 1<<40) {
		t.Fatal("disabled increment threshold must not trigger")
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

// TestRCPacerSATBVotes replays the historical SATB triggers: clean-block
// shortfall and predicted wastage.
func TestRCPacerSATBVotes(t *testing.T) {
	p := newRC()
	if !p.CycleDue(2, 500) {
		t.Fatal("clean-block shortfall must trigger")
	}
	if p.CycleDue(100, 10) {
		t.Fatal("plenty of clean blocks, low wastage: no trigger")
	}
	// The live-block prediction starts at 0 and is biased low, so the
	// first completed trace moves it only a quarter of the way to the
	// 100 blocks observed: prediction 25. The vote sits at 5% of 1000 =
	// 50 blocks of wastage, i.e. at occupancy 75.
	p.ObserveCycleEnd(100)
	if p.CycleDue(100, 74) || !p.CycleDue(100, 75) {
		t.Fatal("after one trace of 100 live blocks the wastage vote must sit at occupancy 25 + 50")
	}
	if p.CycleDue(100, 5) {
		t.Fatal("wastage must floor at zero")
	}
	// Each later trace closes a quarter of the remaining gap.
	p.ObserveCycleEnd(100)
	if p.CycleDue(100, 93) || !p.CycleDue(100, 94) {
		t.Fatal("second trace: prediction 43.75, vote at occupancy 93.75")
	}
}

// TestRCPacerReportsToTracer: every due decision — and nothing else —
// lands on the tracer's policy lane under the kind name the benchmark's
// ledger looks up, with the signal on the firing side of the threshold.
func TestRCPacerReportsToTracer(t *testing.T) {
	tr := trace.New(trace.Config{ShardCap: 16})
	p := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes: 1 << 30, SurvivalThresholdBytes: 1 << 20, IncrementThreshold: 100,
		HeapBlocks: 1000, CleanBlockThreshold: 16, Tracer: tr,
	})
	limit := p.AllocLimit()
	p.Due(limit-1, 99)  // not due
	p.Due(limit, 0)     // rc-survival
	p.Due(0, 100)       // rc-increments
	p.CycleDue(100, 10) // not due
	p.CycleDue(15, 10)  // satb-clean
	p.CycleDue(16, 50)  // satb-wastage
	want := []struct {
		kind           string
		signal, thresh float64
	}{
		{"rc-survival", float64(limit), float64(limit)},
		{"rc-increments", 100, 100},
		{"satb-clean", 15, 16},
		{"satb-wastage", 50, 50},
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
		HeapBlocks: 1000, CleanBlockThreshold: 16,
		Tracer: trace.New(trace.Config{ShardCap: 64}),
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p.Due(int64(i%(1<<24)), 0)
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		p.ObserveEpoch(1<<20, int64(i%10)<<16)
		p.CycleDue(i%64, i%1200)
		p.ObserveCycleEnd((i + 100) % 1100)
	}
	stop.Store(true)
	wg.Wait()
	if l := p.AllocLimit(); l <= 0 || l > 1<<27 {
		t.Fatalf("allocation budget %d outside (0, half the heap]", l)
	}
}
