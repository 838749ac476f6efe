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
// The goroutine, the quiesce/release handshake with pauses, loan
// interruption and panic parking all live in the shared
// conctrl.Controller; this type is its CycleDriver — it owns only LXR's
// work state and the quantum logic. Work quanta are parallel: when the
// borrow width is above 1 the driver borrows that many idle gcwork
// workers (Pool.Lend) for each decrement drain and trace advance. A
// pause that arrives while a loan is outstanding interrupts it through
// the controller: the borrowed workers stop within one work item and
// the unprocessed remainder stays on the interrupted loan, where the
// pause resumes it across all workers (Loan.ResumeInPause) or the next
// quantum folds it into a fresh loan.
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

	// intr retains an interrupted decrement loan: its unprocessed
	// remainder is either resumed across all pause workers
	// (processDecWork → Loan.ResumeInPause) or folded segment-granular
	// into the next quantum's loan — never flattened into a copy.
	intr *gcwork.Loan

	// reclaimable collects blocks whose decrement-freed lines become
	// available at the next pause. Releasing them concurrently would
	// let an allocator reuse lines while this epoch's young objects
	// (whose increments arrive only at the pause) still look free in
	// the RC table.
	reclaimable []int
}

const (
	decChunk   = 4096 // decrements per single-threaded scheduling quantum
	traceChunk = 2048 // trace items per single-threaded scheduling quantum
)

func newConcurrent(p *LXR) *concurrent {
	return &concurrent{p: p, touched: map[int]struct{}{}}
}

// start builds the shared controller and launches the driver
// goroutine. Called from Boot, once the VM exists.
func (c *concurrent) start() {
	c.ctl = conctrl.NewController(c, conctrl.Config{
		Stats: c.p.vm.Stats,
		Width: c.p.cfg.ConcWorkers,
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
// may then pop from it, append to it or pass it on as a loan's seed
// until the batch has drained. Must be called while quiescent.
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
// still unprocessed — as a flat batch, a recursion stack, or the
// remainder of an interrupted loan. Must be called while quiescent.
func (c *concurrent) hasPendingDecs() bool {
	if len(c.pendingDecs) > 0 || len(c.recStack) > 0 {
		return true
	}
	return c.intr != nil && c.intr.HasRemainder()
}

// takePending removes the unprocessed decrement work so the pause can
// finish it: the interrupted loan (whose remainder the pause resumes
// directly across all workers), any flat segments, and the blocks
// already touched by partially completed batches (released by the pause
// after it finishes the drain). Must be called while quiescent.
func (c *concurrent) takePending() (intr *gcwork.Loan, segs [][]mem.Address, touched []int) {
	intr, c.intr = c.intr, nil
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
	return intr, segs, touched
}

// HasWork implements conctrl.CycleDriver. Called with the controller
// lock held; reads only driver-owned state and atomics.
func (c *concurrent) HasWork() bool {
	if len(c.pendingDecs) > 0 || len(c.recStack) > 0 || len(c.touched) > 0 {
		return true
	}
	if c.intr != nil && c.intr.HasRemainder() {
		return true
	}
	return c.p.satbActive.Load() && c.p.tracer.Pending()
}

// Quantum implements conctrl.CycleDriver: one bounded slice of
// concurrent work, highest priority first — decrements, then deferred
// sweeping, then the trace. With width > 1 the decrement and trace
// slices run on borrowed pool workers; a slice then lasts until the
// work is exhausted or a pause interrupts the loan, whichever comes
// first.
func (c *concurrent) Quantum(width int) {
	p := c.p
	switch {
	case len(c.recStack) > 0 || len(c.pendingDecs) > 0 ||
		(c.intr != nil && c.intr.HasRemainder()):
		if width > 1 {
			c.drainDecsParallel(width)
		} else {
			c.drainDecsInline()
		}
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
			if width > 1 {
				p.tracer.StepParallel(p.pool, width, c.ctl.LoanRef().Adopt)
				c.ctl.LoanRef().Drop()
			} else {
				p.tracer.Step(traceChunk)
			}
		}
	}
}

// drainDecsInline is the classic single-threaded decrement slice: up to
// decChunk decrements applied on the driver goroutine itself. An
// interrupted loan's remainder (left over from a wider configuration)
// is folded back into the flat batch first.
func (c *concurrent) drainDecsInline() {
	p := c.p
	if c.intr != nil {
		for _, s := range c.intr.TakeRemainder() {
			c.pendingDecs = append(c.pendingDecs, s...)
		}
		c.intr = nil
	}
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

// drainDecsParallel drains the whole pending decrement batch — and its
// recursive closure — on k borrowed pool workers. Seed segments pass to
// the scheduler as-is: the flat batch, the recursion stack, and any
// interrupted predecessor's remainder, none of them flattened together.
// Each worker records touched blocks in its own slot of a per-worker
// array (worker IDs are stable), merged lock-free after the loan is
// reclaimed. If a pause interrupts the loan, the remainder stays on the
// loan for the pause (or the next quantum) to resume.
func (c *concurrent) drainDecsParallel(k int) {
	p := c.p
	var segs [][]mem.Address
	if c.intr != nil {
		segs = append(segs, c.intr.TakeRemainder()...)
		c.intr = nil
	}
	if len(c.pendingDecs) > 0 {
		segs = append(segs, c.pendingDecs)
		c.pendingDecs = nil
	}
	if len(c.recStack) > 0 {
		segs = append(segs, c.recStack)
		c.recStack = nil
	}
	perWorker, setup, f := p.decDrainFuncs()
	loan := p.pool.Lend(k, segs, setup, f, nil)
	c.ctl.LoanRef().Adopt(loan)
	loan.Reclaim()
	c.ctl.LoanRef().Drop()
	if loan.HasRemainder() {
		c.intr = loan
	}
	for _, m := range perWorker {
		for b := range m {
			c.touched[b] = struct{}{}
		}
	}
}
