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
	// half the heap between pauses) and is the SATB wastage denominator.
	HeapBytes int
	// SurvivalThresholdBytes bounds predicted survivor volume per epoch
	// (§3.2.1; the paper's default is 128 MB on multi-GB heaps, the
	// harness scales it with heap size).
	SurvivalThresholdBytes int64
	// Tracer, when non-nil, receives every due decision as a
	// "trigger:<kind>" instant carrying signal and threshold.
	Tracer *trace.Tracer
}

// WastageFraction is the predicted-wastage SATB trigger: 5% of the heap
// (§3.2.2).
const WastageFraction = 0.05

// MaxTraceEpochs bounds the RC epochs between SATB snapshots, and so the
// epochs one trace may span before a pause completes it: the gap a heap
// whose traces free nothing settles at.
const MaxTraceEpochs = 32

// RCPacer is LXR's pacer (§3.2.1, §3.2.2): the survival-rate RC pause
// trigger — folded into a single allocation-budget comparison so the
// safepoint fast path is one atomic load — and the SATB cycle vote
// (heap wastage predicted from what traces reclaim). Due is safe from
// any number of mutators concurrently with the pause's calls; it takes
// no lock.
type RCPacer struct {
	cfg RCPacerConfig

	survival *DecayPredictor // young survival rate in [0,1]

	allocLimit atomic.Int64

	// The cycle vote's state, touched by pauses only.
	yield         *DecayPredictor // bytes a trace frees per byte allocated; nil until one has completed
	sinceSnapshot int64           // bytes allocated since the last trace's snapshot
	interval      int64           // bytes allocated between the last two snapshots
	epochs        int             // RC epochs since the last snapshot

	// The trigger kinds, interned once so that firing one is a single
	// ring write.
	survivalID, cleanID, wastageID trace.NameID
}

// NewRCPacer creates LXR's pacer.
func NewRCPacer(cfg RCPacerConfig) *RCPacer {
	tr := cfg.Tracer
	p := &RCPacer{
		cfg:        cfg,
		survival:   NewDecayPredictor(0.15),
		survivalID: tr.TriggerName("rc-survival"),
		cleanID:    tr.TriggerName("satb-clean"),
		wastageID:  tr.TriggerName("satb-wastage"),
	}
	p.recompute()
	return p
}

// Due reports whether an RC pause is due: the epoch's allocation volume
// has reached the survival-predicted budget.
func (p *RCPacer) Due(allocBytes int64) bool {
	if limit := p.allocLimit.Load(); allocBytes >= limit {
		p.cfg.Tracer.Trigger(p.survivalID, float64(allocBytes), float64(limit))
		return true
	}
	return false
}

// CycleDue reports whether the pause that just swept should take an
// SATB snapshot, and records it on a yes. It is the paper's vote (§3.2.2),
// predicted wastage against 5% of the heap, with wastage predicted as the
// rate past traces freed at times the bytes allocated since the last
// snapshot; and yes outright when forced, until a trace has been
// measured, and MaxTraceEpochs epochs after the last snapshot.
func (p *RCPacer) CycleDue(forced bool) bool {
	switch thr := WastageFraction * float64(p.cfg.HeapBytes); {
	case forced:
		p.cfg.Tracer.Trigger(p.cleanID, 0, 0)
	case p.yield == nil || p.epochs >= MaxTraceEpochs:
		p.cfg.Tracer.Trigger(p.cleanID, float64(p.epochs), 0)
	default:
		wastage := p.yield.Predict() * float64(p.sinceSnapshot)
		if wastage < thr {
			return false
		}
		p.cfg.Tracer.Trigger(p.wastageID, wastage, thr)
	}
	p.interval, p.sinceSnapshot, p.epochs = p.sinceSnapshot, 0, 0
	return true
}

// ObserveTrace records what the trace of the last snapshot freed — the
// bytes its sweep returned to the allocator — as a yield per byte
// allocated since the snapshot before it. An interval without
// allocation carries no rate.
func (p *RCPacer) ObserveTrace(freedBytes int64) {
	if p.interval <= 0 {
		return
	}
	if rate := float64(freedBytes) / float64(p.interval); p.yield == nil {
		p.yield = NewDecayPredictor(rate)
	} else {
		p.yield.Observe(rate)
	}
}

// ObserveEpoch folds one epoch in: survival feedback, the
// allocation-budget recomputation and the cycle vote's volume.
func (p *RCPacer) ObserveEpoch(allocBytes, survivedBytes int64) {
	p.sinceSnapshot += allocBytes
	p.epochs++
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
