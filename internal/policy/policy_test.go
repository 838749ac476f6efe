package policy_test

import (
	"testing"

	"lxr/internal/policy"
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
		if p.ShouldCollect(policy.Signals{AllocBytes: want - 1}) {
			t.Fatalf("epoch %d: fired below the budget", i)
		}
		if !p.ShouldCollect(policy.Signals{AllocBytes: want}) {
			t.Fatalf("epoch %d: did not fire at the budget", i)
		}
		p.ObserveEpoch(policy.EpochStats{AllocBytes: e.alloc, SurvivedBytes: e.survived})
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
	if !p.ShouldCollect(policy.Signals{LoggedFields: 150}) {
		t.Fatal("increment threshold must trigger")
	}
	p2 := policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes:              1 << 50,
		SurvivalThresholdBytes: 1 << 20,
	})
	if p2.ShouldCollect(policy.Signals{LoggedFields: 1 << 40}) {
		t.Fatal("disabled increment threshold must not trigger")
	}
}

func TestRCPacerSurvivalClamps(t *testing.T) {
	p := newRC()
	p.ObserveEpoch(policy.EpochStats{AllocBytes: 100, SurvivedBytes: 500}) // >100% clamps to 1
	want := staticLimit(1<<20, 0.75*1+0.25*0.15, 1<<30)
	if got := p.AllocLimit(); got != want {
		t.Fatalf("clamped survival: limit %d, want %d", got, want)
	}
	before := p.AllocLimit()
	p.ObserveEpoch(policy.EpochStats{AllocBytes: 0, SurvivedBytes: 0}) // ignored
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
	if !p.ShouldStartCycle(policy.Signals{CleanYielded: 2, HeapBlocks: 500}) {
		t.Fatal("clean-block shortfall must trigger")
	}
	if p.ShouldStartCycle(policy.Signals{CleanYielded: 100, HeapBlocks: 10}) {
		t.Fatal("plenty of clean blocks, low wastage: no trigger")
	}
	// Wastage: live-block prediction 100, occupancy 400 -> wastage 300
	// >= 5% of 1000.
	p.ObserveCycleEnd(policy.Signals{HeapBlocks: 100})
	if !p.ShouldStartCycle(policy.Signals{CleanYielded: 100, HeapBlocks: 400}) {
		t.Fatal("wastage must trigger")
	}
	if p.ShouldStartCycle(policy.Signals{CleanYielded: 100, HeapBlocks: 5}) {
		t.Fatal("wastage must floor at zero")
	}
}

// --- G1 ---------------------------------------------------------------------

func newG1() *policy.G1Pacer {
	return policy.NewG1Pacer(policy.G1PacerConfig{
		BudgetBlocks: 1000, YoungTargetBlocks: 100,
	})
}

// TestG1PacerStaticReplay replays the historical young trigger and the
// fixed 45% IHOP.
func TestG1PacerStaticReplay(t *testing.T) {
	p := newG1()
	if p.ShouldCollect(policy.Signals{YoungBlocks: 99, BudgetRemaining: 1 << 20}) {
		t.Fatal("young below target must not trigger")
	}
	if !p.ShouldCollect(policy.Signals{YoungBlocks: 100, BudgetRemaining: 1 << 20}) {
		t.Fatal("young at target must trigger")
	}
	// Copy-reserve guard: yb=8 -> reserve 8+2+8=18.
	if !p.ShouldCollect(policy.Signals{YoungBlocks: 8, BudgetRemaining: 18}) {
		t.Fatal("reserve guard must trigger")
	}
	if p.ShouldCollect(policy.Signals{YoungBlocks: 8, BudgetRemaining: 19}) {
		t.Fatal("reserve guard fired with budget to spare")
	}
	if p.ShouldCollect(policy.Signals{YoungBlocks: 4, BudgetRemaining: 0}) {
		t.Fatal("reserve guard must not fire under the 4-block floor")
	}
	// IHOP at the historical 45% (integer math: 1000*45/100 = 450).
	if p.ShouldStartCycle(policy.Signals{HeapBlocks: 450}) {
		t.Fatal("IHOP fired at the threshold (historical check is strict >)")
	}
	if !p.ShouldStartCycle(policy.Signals{HeapBlocks: 451}) {
		t.Fatal("IHOP must fire above 45%")
	}
}

// --- Shenandoah / ZGC -------------------------------------------------------

func newFF() *policy.FreeFractionPacer {
	return policy.NewFreeFractionPacer(policy.FreeFractionPacerConfig{
		Collector: "Shenandoah", BudgetBlocks: 1000,
	})
}

// TestFreeFractionStaticReplay replays the historical 30%-free trigger.
func TestFreeFractionStaticReplay(t *testing.T) {
	p := newFF()
	if p.ShouldStartCycle(policy.Signals{HeapBlocks: 700}) {
		t.Fatal("fired at the threshold (historical check is strict >)")
	}
	if !p.ShouldStartCycle(policy.Signals{HeapBlocks: 701}) {
		t.Fatal("must fire above 70% occupancy")
	}
}

// --- SemiSpace / Immix ------------------------------------------------------

func TestHeapFullPacerHalfBudget(t *testing.T) {
	p := policy.NewHeapFullPacer("SemiSpace", 500)
	if p.ShouldCollect(policy.Signals{HeapBlocks: 499}) {
		t.Fatal("below the half budget must not trigger")
	}
	if !p.ShouldCollect(policy.Signals{HeapBlocks: 500}) {
		t.Fatal("at the half budget must trigger")
	}
}

func TestHeapFullPacerAllocFailure(t *testing.T) {
	p := policy.NewHeapFullPacer("Immix", 0)
	if !p.ShouldCollect(policy.Signals{HeapBlocks: 123, BudgetBlocks: 1000}) {
		t.Fatal("allocation failure is always due")
	}
	tr := p.Trace()
	if tr.Fired != 1 || len(tr.Decisions) != 1 || tr.Decisions[0].Kind != "heap-full" {
		t.Fatalf("heap-full fire not archived: %+v", tr)
	}
}

// --- the decision archive ---------------------------------------------------

func TestTraceArchivesDecisionsAndThresholds(t *testing.T) {
	p := newG1()
	p.ShouldCollect(policy.Signals{YoungBlocks: 100, BudgetRemaining: 1 << 20})
	p.ShouldStartCycle(policy.Signals{HeapBlocks: 451})
	tr := p.Trace()
	if tr.Collector != "G1" {
		t.Fatalf("identity wrong: %+v", tr)
	}
	if tr.Fired != 2 || len(tr.Decisions) != 2 {
		t.Fatalf("want 2 archived fires, got fired=%d len=%d", tr.Fired, len(tr.Decisions))
	}
	if tr.Decisions[0].Kind != "young-target" || tr.Decisions[0].Signal != 100 {
		t.Fatalf("young decision mis-archived: %+v", tr.Decisions[0])
	}
	if tr.Thresholds["ihop"] != 450 || tr.Thresholds["young-target"] != 100 {
		t.Fatalf("thresholds not published: %v", tr.Thresholds)
	}
}

// TestTraceCollapsesRepeats: a burst of identical fires (mutators
// polling an already-due trigger) collapses into one decision's Repeats.
func TestTraceCollapsesRepeats(t *testing.T) {
	p := newG1()
	for i := 0; i < 100; i++ {
		p.ShouldCollect(policy.Signals{YoungBlocks: 100, BudgetRemaining: 1 << 20})
	}
	tr := p.Trace()
	if tr.Fired != 100 {
		t.Fatalf("fired %d, want 100", tr.Fired)
	}
	if len(tr.Decisions) != 1 {
		t.Fatalf("burst archived %d decisions, want 1", len(tr.Decisions))
	}
	if tr.Decisions[0].Repeats != 99 {
		t.Fatalf("repeats %d, want 99", tr.Decisions[0].Repeats)
	}
}

// TestTraceDropsPastCapWithCount: the archive is bounded but nothing is
// silently lost — dropped decisions are counted.
func TestTraceDropsPastCapWithCount(t *testing.T) {
	p := policy.NewHeapFullPacer("Immix", 0)
	const n = 6000 // past the 4096 archive cap
	for i := 0; i < n; i++ {
		// A distinct threshold per fire defeats repeat-collapsing, so
		// the cap itself is exercised.
		p.ShouldCollect(policy.Signals{HeapBlocks: i, BudgetBlocks: 10000 + i})
	}
	tr := p.Trace()
	if tr.Fired != n {
		t.Fatalf("fired %d, want %d", tr.Fired, n)
	}
	if len(tr.Decisions) != 4096 {
		t.Fatalf("archive holds %d decisions, want the 4096 cap", len(tr.Decisions))
	}
	if int64(len(tr.Decisions))+sumRepeats(tr)+tr.Dropped != n {
		t.Fatalf("decisions(%d) + repeats(%d) + dropped(%d) != %d",
			len(tr.Decisions), sumRepeats(tr), tr.Dropped, n)
	}
}

func sumRepeats(tr *policy.Trace) int64 {
	var s int64
	for _, d := range tr.Decisions {
		s += d.Repeats
	}
	return s
}
