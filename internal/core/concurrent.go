package core

import (
	"lxr/internal/conctrl"
	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// concurrent is LXR's concurrent collection driver (Fig. 2). It
// processes lazy decrements with priority, then sweeps blocks touched by
// decrements, then advances the SATB trace.
//
// The goroutine, the quiesce/release handshake with pauses and panic
// parking all live in the shared conctrl.Controller; this type is its
// CycleDriver — it owns only LXR's work state and the quantum logic.
// Every quantum runs on the controller's own goroutine, bounded by
// decChunk decrements or traceChunk trace items, so a pause waits for at
// most one such slice before it owns the collector's state.
type concurrent struct {
	p   *LXR
	ctl *conctrl.Controller

	// Mutator-overflow inboxes (also drained at pauses).
	decs gcwork.SharedAddrQueue
	mods gcwork.SharedAddrQueue

	// State owned by the driver (pauses may touch it only while the
	// driver is quiescent).
	pendingDecs []mem.Address
	recStack    []mem.Address
	touched     map[int]struct{}

	// reclaimable collects blocks whose decrement-freed lines become
	// available at the next pause. Releasing them concurrently would
	// let an allocator reuse lines while this epoch's young objects
	// (whose increments arrive only at the pause) still look free in
	// the RC table.
	reclaimable []int
}

const (
	decChunk   = 4096 // decrements per scheduling quantum
	traceChunk = 2048 // trace items per scheduling quantum
)

func newConcurrent(p *LXR) *concurrent {
	return &concurrent{p: p, touched: map[int]struct{}{}}
}

// start builds the shared controller and launches the driver
// goroutine. Called from Boot, once the VM exists.
func (c *concurrent) start() {
	c.ctl = conctrl.NewController(c, conctrl.Config{
		Stats: c.p.vm.Stats,
		Trace: c.p.events,
	})
	c.ctl.Start()
}

func (c *concurrent) stop() { c.ctl.Stop() }

// quiesce blocks until the driver is parked between work quanta. Called
// with the world stopped, before pause phases touch collector state.
func (c *concurrent) quiesce() { c.ctl.Quiesce() }

// release lets the driver resume after a pause.
func (c *concurrent) release() { c.ctl.Release() }

// submitDecs hands a pause's decrement batch to the driver, which takes
// the slice itself when it holds nothing (always, as the pipeline runs:
// a pause finishes the previous batch before it builds the next) and
// may then pop from it or append to it until the batch has drained.
// Must be called while quiescent.
func (c *concurrent) submitDecs(decs []mem.Address) {
	if len(c.pendingDecs) == 0 {
		c.pendingDecs = decs
		return
	}
	c.pendingDecs = append(c.pendingDecs, decs...)
}

// releaseReclaimable releases the blocks completed decrement batches
// touched. Runs inside a pause, while quiescent, before the young sweep.
func (c *concurrent) releaseReclaimable() {
	if !c.hasPendingDecs() {
		for _, b := range c.reclaimable {
			c.p.maybeReleaseAfterDecs(b)
		}
		c.reclaimable = c.reclaimable[:0]
	}
}

// hasPendingDecs reports whether the previous epoch's decrements are
// still unprocessed — as a flat batch or a recursion stack. Must be
// called while quiescent.
func (c *concurrent) hasPendingDecs() bool {
	return len(c.pendingDecs) > 0 || len(c.recStack) > 0
}

// takePending removes the unprocessed decrement work so the pause can
// finish it: the flat segments, and the blocks already touched by
// partially completed batches (released by the pause after it finishes
// the drain). Must be called while quiescent.
func (c *concurrent) takePending() (segs [][]mem.Address, touched []int) {
	if len(c.pendingDecs) > 0 {
		segs = append(segs, c.pendingDecs)
		c.pendingDecs = nil
	}
	if len(c.recStack) > 0 {
		segs = append(segs, c.recStack)
		c.recStack = nil
	}
	for b := range c.touched {
		touched = append(touched, b)
		delete(c.touched, b)
	}
	return segs, touched
}

// HasWork implements conctrl.CycleDriver. Called with the controller
// lock held; reads only driver-owned state and atomics.
func (c *concurrent) HasWork() bool {
	if c.hasPendingDecs() || len(c.touched) > 0 {
		return true
	}
	return c.p.satbActive.Load() && c.p.tracer.Pending()
}

// Quantum implements conctrl.CycleDriver: one bounded slice of
// concurrent work, highest priority first — decrements, then deferred
// sweeping, then the trace.
func (c *concurrent) Quantum() {
	p := c.p
	switch {
	case c.hasPendingDecs():
		c.drainDecs()
	case len(c.touched) > 0:
		// Decrements drained: queue the touched blocks for release at
		// the next pause (lazy reclamation, §3.3.1 — the reclaim
		// decision is made here, the lines become allocatable at the
		// pause so they can never race with in-flight increments).
		for b := range c.touched {
			c.reclaimable = append(c.reclaimable, b)
			delete(c.touched, b)
		}
	default:
		if p.satbActive.Load() {
			p.tracer.Step(traceChunk)
		}
	}
}

// drainDecs applies up to decChunk decrements, recursive ones first, on
// the driver goroutine itself.
func (c *concurrent) drainDecs() {
	p := c.p
	for i := 0; i < decChunk; i++ {
		var ref obj.Ref
		if n := len(c.recStack); n > 0 {
			ref = obj.Ref(c.recStack[n-1])
			c.recStack = c.recStack[:n-1]
		} else if n := len(c.pendingDecs); n > 0 {
			ref = obj.Ref(c.pendingDecs[n-1])
			c.pendingDecs = c.pendingDecs[:n-1]
		} else {
			break
		}
		p.applyDec(0, ref,
			func(child obj.Ref) { c.recStack = append(c.recStack, child) },
			func(b int) { c.touched[b] = struct{}{} })
	}
}
