// Package policy is LXR's pacer: the only pacing in the repository
// that carries state. The baselines' rules are fixed comparisons that
// live beside the numbers they compare (internal/baselines).
package policy

import (
	"sync/atomic"

	"lxr/internal/trace"
)

// RCPacerConfig parameterises LXR's pacer. Zero values select the
// paper's defaults where one exists.
type RCPacerConfig struct {
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
	// Tracer, when non-nil, receives every due decision as a
	// "trigger:<kind>" instant carrying signal and threshold.
	Tracer *trace.Tracer
}

// wastageFraction is the predicted-wastage SATB trigger: 5% of the heap
// (§3.2.2).
const wastageFraction = 0.05

// RCPacer is LXR's pacer (§3.2.1, §3.2.2): the survival-rate RC pause
// trigger — folded into a single allocation-budget comparison so the
// safepoint fast path is one atomic load — and the SATB cycle votes
// (clean-block shortfall, predicted heap wastage). Due is safe from any
// number of mutators concurrently with the pause's Observe calls; it
// takes no lock.
type RCPacer struct {
	cfg RCPacerConfig

	survival   *DecayPredictor // young survival rate in [0,1], bias high
	liveBlocks *DecayPredictor // post-SATB live blocks, bias low

	allocLimit atomic.Int64

	// The trigger kinds, interned once so that firing one is a single
	// ring write.
	survivalID, incrementsID, cleanID, wastageID trace.NameID
}

// NewRCPacer creates LXR's pacer.
func NewRCPacer(cfg RCPacerConfig) *RCPacer {
	tr := cfg.Tracer
	p := &RCPacer{
		cfg:          cfg,
		survival:     NewDecayPredictor(0.15, true),
		liveBlocks:   NewDecayPredictor(0, false),
		survivalID:   tr.TriggerName("rc-survival"),
		incrementsID: tr.TriggerName("rc-increments"),
		cleanID:      tr.TriggerName("satb-clean"),
		wastageID:    tr.TriggerName("satb-wastage"),
	}
	p.recompute()
	return p
}

// AllocLimit returns the current epoch allocation budget in bytes (the
// value Due compares allocBytes against) — exposed for tests.
func (p *RCPacer) AllocLimit() int64 { return p.allocLimit.Load() }

// Due reports whether an RC pause is due: the epoch's allocation volume
// has reached the survival-predicted budget, or its logged-field count
// the increment threshold (when configured).
func (p *RCPacer) Due(allocBytes, loggedFields int64) bool {
	if thr := p.cfg.IncrementThreshold; thr > 0 && loggedFields >= thr {
		p.cfg.Tracer.Trigger(p.incrementsID, float64(loggedFields), float64(thr))
		return true
	}
	if limit := p.allocLimit.Load(); allocBytes >= limit {
		p.cfg.Tracer.Trigger(p.survivalID, float64(allocBytes), float64(limit))
		return true
	}
	return false
}

// CycleDue reports whether the pause that just swept should seed an
// SATB trace: the epoch yielded too few clean blocks, or predicted
// wastage (occupancy minus predicted post-trace live blocks) exceeds
// the wastage fraction of the heap (§3.2.2).
func (p *RCPacer) CycleDue(cleanYielded, heapBlocks int) bool {
	if thr := p.cfg.CleanBlockThreshold; cleanYielded < thr {
		p.cfg.Tracer.Trigger(p.cleanID, float64(cleanYielded), float64(thr))
		return true
	}
	wastage := float64(heapBlocks) - p.liveBlocks.Predict()
	if wastage < 0 {
		wastage = 0
	}
	if thr := wastageFraction * float64(p.cfg.HeapBlocks); wastage >= thr {
		p.cfg.Tracer.Trigger(p.wastageID, wastage, thr)
		return true
	}
	return false
}

// ObserveCycleEnd records a completed SATB trace that left heapBlocks
// in use: feeds the post-trace live-block predictor behind the wastage
// vote.
func (p *RCPacer) ObserveCycleEnd(heapBlocks int) {
	p.liveBlocks.Observe(float64(heapBlocks))
}

// ObserveEpoch folds one epoch in: survival feedback and the
// allocation-budget recomputation.
func (p *RCPacer) ObserveEpoch(allocBytes, survivedBytes int64) {
	if allocBytes > 0 {
		r := float64(survivedBytes) / float64(allocBytes)
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
	p.allocLimit.Store(int64(limit))
}
