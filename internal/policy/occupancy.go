package policy

// --- G1 ---------------------------------------------------------------------

// G1PacerConfig parameterises G1's pacer.
type G1PacerConfig struct {
	// BudgetBlocks is the heap budget in blocks.
	BudgetBlocks int
	// YoungTargetBlocks is the young-generation size that triggers an
	// evacuation pause.
	YoungTargetBlocks int
}

// G1Pacer owns G1's two start decisions: the young-collection trigger
// (young generation at target size, or the remaining budget no longer
// covering the evacuation copy reserve) and the concurrent-mark IHOP,
// fixed at 45% of the budget.
type G1Pacer struct {
	recorder
	cfg  G1PacerConfig
	ihop int64 // occupancy (blocks) above which a mark starts
}

// NewG1Pacer creates G1's pacer.
func NewG1Pacer(cfg G1PacerConfig) *G1Pacer {
	// occupancy > budget*45/100, in integer math.
	p := &G1Pacer{cfg: cfg, ihop: int64(cfg.BudgetBlocks * 45 / 100)}
	p.init("G1")
	p.setThreshold("ihop", float64(p.ihop))
	p.setThreshold("young-target", float64(cfg.YoungTargetBlocks))
	return p
}

// ShouldCollect implements Pacer: a young collection is due when the
// young generation reaches its target, or earlier when the remaining
// budget no longer guarantees the evacuation copy reserve (real G1
// reserves to-space the same way to avoid evacuation failure).
func (p *G1Pacer) ShouldCollect(s Signals) bool {
	yb := s.YoungBlocks
	if yb >= p.cfg.YoungTargetBlocks {
		p.fire("young-target", float64(yb), float64(p.cfg.YoungTargetBlocks), s)
		return true
	}
	if reserve := yb + yb/4 + 8; yb > 4 && s.BudgetRemaining <= reserve {
		p.fire("young-reserve", float64(s.BudgetRemaining), float64(reserve), s)
		return true
	}
	return false
}

// ShouldStartCycle implements Pacer: the IHOP check.
func (p *G1Pacer) ShouldStartCycle(s Signals) bool {
	if int64(s.HeapBlocks) > p.ihop {
		p.fire("ihop", float64(s.HeapBlocks), float64(p.ihop), s)
		return true
	}
	return false
}

// --- Shenandoah / ZGC -------------------------------------------------------

// FreeFractionPacerConfig parameterises the concurrent-evacuating
// collectors' pacer.
type FreeFractionPacerConfig struct {
	// Collector names the trace ("Shenandoah", "ZGC").
	Collector string
	// BudgetBlocks is the heap budget in blocks.
	BudgetBlocks int
}

// FreeFractionPacer owns the Shenandoah/ZGC cycle trigger: a collection
// cycle starts when free memory falls under a fraction of the budget
// (30%, i.e. occupancy above 70%).
type FreeFractionPacer struct {
	recorder
	thr int64 // occupancy (blocks) above which a cycle starts
}

// NewFreeFractionPacer creates the pacer.
func NewFreeFractionPacer(cfg FreeFractionPacerConfig) *FreeFractionPacer {
	if cfg.Collector == "" {
		cfg.Collector = "Shenandoah"
	}
	// used > budget*70/100, in integer math.
	p := &FreeFractionPacer{thr: int64(cfg.BudgetBlocks * 70 / 100)}
	p.init(cfg.Collector)
	p.setThreshold("free-fraction", float64(p.thr))
	return p
}

// ShouldCollect implements Pacer: these collectors have no separate
// STW trigger — the cycle is the collection.
func (p *FreeFractionPacer) ShouldCollect(s Signals) bool { return p.ShouldStartCycle(s) }

// ShouldStartCycle implements Pacer. It runs on the conctrl
// controller's poll path with the controller lock held, so it is
// atomics-only: the signals must be snapshot lock-free by the caller.
func (p *FreeFractionPacer) ShouldStartCycle(s Signals) bool {
	if int64(s.HeapBlocks) > p.thr {
		p.fire("free-fraction", float64(s.HeapBlocks), float64(p.thr), s)
		return true
	}
	return false
}

// --- SemiSpace / STW Immix --------------------------------------------------

// HeapFullPacer owns the stop-the-world collectors' trigger. Two
// policies exist:
//
//   - LimitBlocks > 0 (SemiSpace): collect when occupancy reaches the
//     limit — the half-budget test that reserves the copy half.
//   - LimitBlocks == 0 (Immix): collection is driven purely by
//     allocation failure; ShouldCollect is consulted at the failure
//     point and always due, so the decision is archived with its
//     occupancy snapshot like every other trigger.
type HeapFullPacer struct {
	recorder
	limit int64
}

// NewHeapFullPacer creates the pacer; limitBlocks 0 selects the pure
// allocation-failure policy.
func NewHeapFullPacer(collector string, limitBlocks int) *HeapFullPacer {
	p := &HeapFullPacer{limit: int64(limitBlocks)}
	p.init(collector)
	if limitBlocks > 0 {
		p.setThreshold("half-budget", float64(limitBlocks))
	}
	return p
}

// ShouldCollect implements Pacer.
func (p *HeapFullPacer) ShouldCollect(s Signals) bool {
	if p.limit > 0 {
		if int64(s.HeapBlocks) >= p.limit {
			p.fire("half-budget", float64(s.HeapBlocks), float64(p.limit), s)
			return true
		}
		return false
	}
	p.fire("heap-full", float64(s.HeapBlocks), float64(s.BudgetBlocks), s)
	return true
}

// ShouldStartCycle implements Pacer: these collectors have no
// concurrent cycle.
func (p *HeapFullPacer) ShouldStartCycle(Signals) bool { return false }
