// Package policy is the shared GC pacing subsystem: it owns the "when
// to take a pause / when to start a concurrent cycle" decision for
// every collector in the repository.
//
// LXR's survival-budget RC trigger and SATB clean-block/wastage votes
// (§3.2.1, §3.2.2), G1's fixed 45% IHOP plus young-budget check,
// Shenandoah's 30%-free watch and the STW collectors' occupancy tests
// sit behind one Pacer contract, fed by cheap cumulative signals
// (allocation volume, survival observations, occupancy). The thresholds
// are fixed rules; only LXR's allocation budget moves, with its
// survival predictor.
//
// Every firing decision and every threshold adjustment is archived with
// its signal snapshot and the threshold in force; the harness publishes
// the record under the "pacing" key of the -json output.
package policy

import (
	"sync"
	"sync/atomic"
	"time"
)

// Signals is the snapshot of cheap cumulative signals a pacing decision
// is made from. Collectors fill the fields that exist for them; the
// rest stay zero.
type Signals struct {
	// AllocBytes is the volume allocated since the last epoch/pause.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// LoggedFields is the barrier slow-path count since the last epoch.
	LoggedFields int64 `json:"logged_fields,omitempty"`
	// HeapBlocks is current occupancy in blocks (each collector feeds
	// the same population its historical heuristic read: LXR main-space
	// blocks, G1/Shenandoah main + large-object blocks, SemiSpace its
	// current half).
	HeapBlocks int `json:"heap_blocks,omitempty"`
	// BudgetBlocks is the heap budget in blocks.
	BudgetBlocks int `json:"budget_blocks,omitempty"`
	// BudgetRemaining is how many blocks the budget still allows.
	BudgetRemaining int `json:"budget_remaining,omitempty"`
	// YoungBlocks is the young-generation block count since the last
	// collection (G1).
	YoungBlocks int `json:"young_blocks,omitempty"`
	// CleanYielded is how many clean blocks the last young sweep
	// yielded (LXR's SATB clean-block vote).
	CleanYielded int `json:"clean_yielded,omitempty"`
	// DecBacklog is the lazy-decrement backlog depth in items (LXR).
	DecBacklog int64 `json:"dec_backlog,omitempty"`
}

// EpochStats is the post-pause feedback LXR folds into its pacer's
// survival predictor once per epoch (RCPacer.ObserveEpoch).
type EpochStats struct {
	// AllocBytes and SurvivedBytes drive the survival-rate predictor.
	AllocBytes    int64
	SurvivedBytes int64
}

// Pacer is the pacing contract every collector's start decisions route
// through. Decision methods are safe to call concurrently with each
// other and with Trace.
type Pacer interface {
	// ShouldCollect reports whether a collection is due: an RC pause
	// (LXR), a young evacuation pause (G1), or a full STW collection
	// (SemiSpace/Immix). It runs on mutator safepoint paths and must
	// stay cheap when not due.
	ShouldCollect(s Signals) bool
	// ShouldStartCycle reports whether a concurrent cycle should begin:
	// an SATB trace (LXR), a concurrent mark (G1), a mark/evac/update
	// pipeline (Shenandoah/ZGC). It may run on a concurrent controller
	// goroutine with the controller lock held, so it must be
	// non-blocking: atomics and pacer-owned state only.
	ShouldStartCycle(s Signals) bool
	// Trace snapshots the archived pacing record.
	Trace() *Trace
}

// Decision archives one fired pacing decision. Identical consecutive
// fires (same kind, same threshold, within repeatWindow) collapse into
// the Repeats count of the first, so a mutator burst polling an
// already-due trigger cannot flood the archive.
type Decision struct {
	AtMS      float64 `json:"at_ms"`
	Kind      string  `json:"kind"`
	Signal    float64 `json:"signal"`
	Threshold float64 `json:"threshold"`
	Repeats   int64   `json:"repeats,omitempty"`
	Signals   Signals `json:"signals"`
}

// Adjustment archives one threshold move.
type Adjustment struct {
	AtMS  float64 `json:"at_ms"`
	Kind  string  `json:"kind"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Cause string  `json:"cause"`
}

// Trace is the archived pacing record of one run — the harness emits it
// under the "pacing" key of the -json output.
type Trace struct {
	Collector string `json:"collector"`
	// Fired counts every due decision, including the ones collapsed
	// into Repeats and the ones dropped past the archive cap.
	Fired int64 `json:"fired"`
	// Dropped and DroppedAdjustments count entries past the archive
	// caps, plus decisions skipped because the archive mutex was busy
	// (the fire path must never block under the conctrl controller
	// lock). The caps bound memory, not the counters — nothing is
	// silently lost: decisions + repeats + dropped always equals fired.
	Dropped            int64 `json:"dropped,omitempty"`
	DroppedAdjustments int64 `json:"dropped_adjustments,omitempty"`
	// Thresholds is each trigger kind's threshold currently in force.
	Thresholds  map[string]float64 `json:"thresholds,omitempty"`
	Decisions   []Decision         `json:"decisions"`
	Adjustments []Adjustment       `json:"adjustments,omitempty"`
}

const (
	maxDecisions   = 4096
	maxAdjustments = 1024
	// repeatWindow is how long an identical consecutive fire keeps
	// collapsing into the previous decision's Repeats count.
	repeatWindow = 5 * time.Millisecond
)

// recorder is the decision archive every concrete pacer embeds.
type recorder struct {
	collector string
	start     time.Time

	fired     atomic.Int64
	contended atomic.Int64 // decisions dropped because the archive was busy

	mu          sync.Mutex
	dropped     int64 // decisions past the archive cap
	droppedAdj  int64 // adjustments past the archive cap
	decisions   []Decision
	adjustments []Adjustment
	thresholds  map[string]float64

	// hook, when non-nil, observes every fired trigger before the
	// archive's dedup/caps — the GC event tracer's instant feed. It is
	// called on trigger paths that must never block (see fire), so
	// implementations must be wait-free; set before concurrent use.
	hook func(kind string, signal, threshold float64)
}

// SetTriggerHook installs a wait-free observer of every fired trigger
// on a built-in pacer (all of them embed the decision recorder). The
// hook runs on trigger paths that may hold the conctrl controller lock,
// so it must not take locks anything else holds while waiting on the
// controller. Returns false if p is not hook-capable.
func SetTriggerHook(p Pacer, f func(kind string, signal, threshold float64)) bool {
	h, ok := p.(interface {
		setTriggerHook(func(kind string, signal, threshold float64))
	})
	if ok {
		h.setTriggerHook(f)
	}
	return ok
}

func (r *recorder) setTriggerHook(f func(kind string, signal, threshold float64)) { r.hook = f }

func (r *recorder) init(collector string) {
	r.collector = collector
	r.start = time.Now()
	r.thresholds = map[string]float64{}
}

func (r *recorder) sinceMS() float64 {
	return float64(time.Since(r.start)) / float64(time.Millisecond)
}

// fire archives one due decision. It must never block: ShouldStartCycle
// runs on the conctrl controller goroutine with the controller lock
// held, and a pause's Quiesce waits on that lock — so if the archive
// mutex is busy (a Trace snapshot copying the record), the decision is
// counted as contention-dropped rather than waited for. The totals stay
// exact: decisions + repeats + dropped = fired.
func (r *recorder) fire(kind string, signal, threshold float64, s Signals) {
	r.fired.Add(1)
	if r.hook != nil {
		r.hook(kind, signal, threshold)
	}
	at := r.sinceMS()
	if !r.mu.TryLock() {
		r.contended.Add(1)
		return
	}
	defer r.mu.Unlock()
	if n := len(r.decisions); n > 0 {
		last := &r.decisions[n-1]
		if last.Kind == kind && last.Threshold == threshold &&
			at-last.AtMS < float64(repeatWindow)/float64(time.Millisecond) {
			last.Repeats++
			return
		}
	}
	if len(r.decisions) >= maxDecisions {
		r.dropped++
		return
	}
	r.decisions = append(r.decisions, Decision{
		AtMS: at, Kind: kind, Signal: signal, Threshold: threshold, Signals: s,
	})
}

// setThreshold publishes the threshold currently in force for a kind.
func (r *recorder) setThreshold(kind string, v float64) {
	r.mu.Lock()
	r.thresholds[kind] = v
	r.mu.Unlock()
}

// adjust archives one threshold move and publishes the new
// value.
func (r *recorder) adjust(kind string, from, to float64, cause string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.thresholds[kind] = to
	if len(r.adjustments) >= maxAdjustments {
		r.droppedAdj++
		return
	}
	r.adjustments = append(r.adjustments, Adjustment{
		AtMS: r.sinceMS(), Kind: kind, From: from, To: to, Cause: cause,
	})
}

// trace snapshots the archive.
func (r *recorder) trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{
		Collector:          r.collector,
		Fired:              r.fired.Load(),
		Dropped:            r.dropped + r.contended.Load(),
		DroppedAdjustments: r.droppedAdj,
		Thresholds:         make(map[string]float64, len(r.thresholds)),
		Decisions:          append([]Decision(nil), r.decisions...),
		Adjustments:        append([]Adjustment(nil), r.adjustments...),
	}
	for k, v := range r.thresholds {
		t.Thresholds[k] = v
	}
	return t
}

// Trace implements Pacer for every embedding pacer.
func (r *recorder) Trace() *Trace { return r.trace() }
