package policy

import "sync/atomic"

// RCPacerConfig parameterises LXR's pacer. Zero values select the
// paper's defaults where one exists.
type RCPacerConfig struct {
	// Collector names the trace (default "LXR"; the ablation plans pass
	// their variant names).
	Collector string
	// HeapBytes bounds the epoch allocation budget (never more than
	// half the heap between pauses).
	HeapBytes int
	// SurvivalThresholdBytes bounds predicted survivor volume per epoch
	// (§3.2.1; the paper's default is 128 MB on multi-GB heaps, the
	// harness scales it with heap size).
	SurvivalThresholdBytes int64
	// IncrementThreshold bounds logged fields per epoch; 0 disables
	// (the paper's default).
	IncrementThreshold int64
	// HeapBlocks is the heap budget in blocks (the SATB wastage
	// denominator).
	HeapBlocks int
	// CleanBlockThreshold is the minimum clean blocks an RC epoch must
	// yield to avoid triggering an SATB trace (§3.2.2).
	CleanBlockThreshold int
}

// wastageFraction is the predicted-wastage SATB trigger: 5% of the heap
// (§3.2.2).
const wastageFraction = 0.05

// RCPacer is LXR's pacer (§3.2.1, §3.2.2): the survival-rate RC pause
// trigger — folded into a single allocation-budget comparison so the
// safepoint fast path is one atomic load — and the SATB cycle votes
// (clean-block shortfall, predicted heap wastage).
type RCPacer struct {
	recorder
	cfg RCPacerConfig

	survival   *DecayPredictor // young survival rate in [0,1], bias high
	liveBlocks *DecayPredictor // post-SATB live blocks, bias low

	allocLimit atomic.Int64
}

// NewRCPacer creates LXR's pacer.
func NewRCPacer(cfg RCPacerConfig) *RCPacer {
	if cfg.Collector == "" {
		cfg.Collector = "LXR"
	}
	p := &RCPacer{
		cfg:        cfg,
		survival:   NewDecayPredictor(0.15, true),
		liveBlocks: NewDecayPredictor(0, false),
	}
	p.init(cfg.Collector)
	p.recompute()
	return p
}

// AllocLimit returns the current epoch allocation budget in bytes (the
// value ShouldCollect compares AllocBytes against) — exposed for tests
// and telemetry.
func (p *RCPacer) AllocLimit() int64 { return p.allocLimit.Load() }

// ShouldCollect implements Pacer: an RC pause is due when the epoch's
// allocation volume reaches the survival-predicted budget, or when the
// logged-field count reaches the increment threshold (when configured).
func (p *RCPacer) ShouldCollect(s Signals) bool {
	if p.cfg.IncrementThreshold > 0 && s.LoggedFields >= p.cfg.IncrementThreshold {
		p.fire("rc-increments", float64(s.LoggedFields), float64(p.cfg.IncrementThreshold), s)
		return true
	}
	limit := p.allocLimit.Load()
	if s.AllocBytes >= limit {
		p.fire("rc-survival", float64(s.AllocBytes), float64(limit), s)
		return true
	}
	return false
}

// ShouldStartCycle implements Pacer: the pause that just swept should
// seed an SATB trace when the epoch yielded too few clean blocks, or
// when predicted wastage (occupancy minus predicted post-trace live
// blocks) exceeds the wastage fraction of the heap (§3.2.2).
func (p *RCPacer) ShouldStartCycle(s Signals) bool {
	if s.CleanYielded < p.cfg.CleanBlockThreshold {
		p.fire("satb-clean", float64(s.CleanYielded), float64(p.cfg.CleanBlockThreshold), s)
		return true
	}
	wastage := float64(s.HeapBlocks) - p.liveBlocks.Predict()
	if wastage < 0 {
		wastage = 0
	}
	if thr := wastageFraction * float64(p.cfg.HeapBlocks); wastage >= thr {
		p.fire("satb-wastage", wastage, thr, s)
		return true
	}
	return false
}

// ObserveCycleEnd records a completed SATB trace: feeds the post-trace
// live-block predictor behind the wastage vote.
func (p *RCPacer) ObserveCycleEnd(s Signals) {
	p.liveBlocks.Observe(float64(s.HeapBlocks))
}

// ObserveEpoch folds one epoch in: survival feedback and the
// allocation-budget recomputation.
func (p *RCPacer) ObserveEpoch(e EpochStats) {
	if e.AllocBytes > 0 {
		r := float64(e.SurvivedBytes) / float64(e.AllocBytes)
		if r > 1 {
			r = 1
		}
		p.survival.Observe(r)
	}
	p.recompute()
}

// recompute derives the allocation budget from the survival prediction
// — the predictor turns "bound expected survivors" into an allocation
// volume checked with one atomic load.
func (p *RCPacer) recompute() {
	s := p.survival.Predict()
	if s < 0.005 {
		s = 0.005
	}
	limit := float64(p.cfg.SurvivalThresholdBytes) / s
	// Never let the trigger exceed half the heap between pauses.
	if max := float64(p.cfg.HeapBytes) / 2; limit > max {
		limit = max
	}
	old := p.allocLimit.Swap(int64(limit))
	if old == 0 {
		p.setThreshold("rc-survival", limit)
		return
	}
	// Archive material moves only (>5%), so per-pause recomputation
	// noise does not flood the record.
	if diff := limit - float64(old); diff > float64(old)*0.05 || diff < -float64(old)*0.05 {
		p.adjust("rc-survival", float64(old), limit, "survival")
	} else {
		p.setThreshold("rc-survival", limit)
	}
}
