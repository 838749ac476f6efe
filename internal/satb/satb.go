// Package satb implements a snapshot-at-the-beginning concurrent tracing
// engine (Yuasa 1990) reused by LXR's backup cycle trace and by the
// G1-like and Shenandoah-like baselines' concurrent marking.
//
// The tracer is owned by a single concurrent collector thread, which
// processes work in bounded steps so it can interleave with
// higher-priority work (LXR processes lazy decrements first, §3.2.1) and
// yield at stop-the-world pauses. Seeds arrive from pauses via a
// thread-safe inbox. For stop-the-world ablations the same closure can
// be drained in parallel with a worker pool.
package satb

import (
	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
)

// Tracer performs an SATB trace over the heap.
type Tracer struct {
	OM    obj.Model
	Marks *meta.BitTable // one bit per granule

	// Filter, when non-nil, is consulted before marking: returning
	// false skips the reference (LXR's mature-only optimisation skips
	// objects with a zero reference count, §3.2.2).
	Filter func(ref obj.Ref) bool
	// OnMark is invoked once per newly marked object (live accounting).
	OnMark func(ref obj.Ref)
	// OnEdge is invoked for every reference edge scanned, before the
	// target is pushed (G1 bootstraps its remembered sets here).
	OnEdge func(slot mem.Address, val obj.Ref)

	inbox gcwork.SharedAddrQueue
	stack []mem.Address

	active bool
}

// Begin starts a new trace epoch. Mark bits must already be clear.
func (t *Tracer) Begin() { t.active = true }

// Seed enqueues snapshot references (roots captured at the trace-start
// pause, or overwritten values captured by the write barrier). Safe to
// call from pauses while the tracer thread is quiescent, or from the
// tracer thread itself.
func (t *Tracer) Seed(refs []obj.Ref) {
	if len(refs) == 0 {
		return
	}
	t.inbox.Append(refs)
}

// SeedOne enqueues a single snapshot reference.
func (t *Tracer) SeedOne(ref obj.Ref) { t.inbox.Push(ref) }

// Pending reports whether any queued work remains.
func (t *Tracer) Pending() bool { return len(t.stack) > 0 || t.inbox.Len() > 0 }

// Step processes up to budget queue items on the owner thread. It
// returns true when the trace has no work left (the queue may refill if
// new seeds arrive from a later pause, so completion is decided by the
// collector, not the tracer). The inbox is consumed one segment at a
// time — never flattened — so a bounded step touches only the memory it
// is about to trace.
func (t *Tracer) Step(budget int) bool {
	for budget > 0 {
		if len(t.stack) == 0 {
			t.stack = t.inbox.PopSeg()
			if len(t.stack) == 0 {
				return true
			}
		}
		n := len(t.stack)
		ref := obj.Ref(t.stack[n-1])
		t.stack = t.stack[:n-1]
		t.visit(ref, nil)
		budget--
	}
	return !t.Pending()
}

// alreadyMarked reports whether ref's mark bit is set, so a visit can
// stop before the Filter runs. The outcome is the one the old order
// reached — rejected by the Filter or refused by TrySet, a marked ref
// was dropped either way, and marks are only cleared between traces —
// but a Filter that decodes the header (LXR's does) costs a miss into
// the heap, and most seeds and edges of a trace's closing pause land on
// objects the concurrent trace marked long ago. The arena test keeps a
// stale queue entry from indexing the table out of range; the Filter
// still sees every ref that is not marked.
func (t *Tracer) alreadyMarked(ref obj.Ref) bool {
	return t.OM.A.Contains(ref) && t.Marks.Get(ref)
}

// visit marks ref (subject to Filter) and queues its reference slots:
// on w's local stack when a pool worker runs it (DrainParallel),
// on the owner's stack when w is nil (Step). It is safe on several
// workers at once when the hooks are: TrySet decides which of two
// racing visits scans the object.
func (t *Tracer) visit(ref obj.Ref, w *gcwork.Worker) {
	if ref.IsNil() || t.alreadyMarked(ref) {
		return
	}
	if t.Filter != nil && !t.Filter(ref) {
		return
	}
	if !t.Marks.TrySet(ref) {
		return
	}
	if t.OnMark != nil {
		t.OnMark(ref)
	}
	t.OM.EachSlot(ref, func(_ int, slot mem.Address, v obj.Ref) {
		if v.IsNil() {
			return
		}
		if t.OnEdge != nil {
			t.OnEdge(slot, v)
		}
		if w != nil {
			w.Push(v)
		} else {
			t.stack = append(t.stack, v)
		}
	})
}

// DrainParallel completes the closure using a worker pool inside a
// pause. All hooks must be thread-safe. Used by the -SATB ablation
// (tracing in the pause, Table 7) and by baselines' final-mark pauses.
func (t *Tracer) DrainParallel(pool *gcwork.Pool) {
	segs := t.inbox.TakeSegs()
	if len(t.stack) > 0 {
		segs = append(segs, t.stack)
	}
	t.stack = nil
	pool.DrainSegs(segs, nil, func(w *gcwork.Worker, a mem.Address) {
		t.visit(obj.Ref(a), w)
	}, nil)
}

// ResolvePending rewrites every queued trace address through resolve.
// Collectors that move objects at pauses while a trace is in flight
// (G1's young evacuations during concurrent marking) use it to fix
// stale mark-stack and inbox entries before the moved-from space can be
// reused — the forwarding words are still intact during the pause.
// Must run while the tracer's owner thread is quiescent.
func (t *Tracer) ResolvePending(resolve func(ref obj.Ref) obj.Ref) {
	for i, a := range t.stack {
		t.stack[i] = mem.Address(resolve(obj.Ref(a)))
	}
	for _, s := range t.inbox.TakeSegs() {
		for i, a := range s {
			s[i] = mem.Address(resolve(obj.Ref(a)))
		}
		t.inbox.Append(s)
	}
}

// Finish ends the trace epoch. The caller is responsible for clearing
// mark bits after reclamation (LXR clears them only after the SATB epoch
// finishes, §3.2.2).
func (t *Tracer) Finish() {
	t.active = false
	t.stack = nil
	t.inbox.Take()
}
