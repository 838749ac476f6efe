// Package conctrl is the shared concurrent-collection control plane.
//
// Every concurrent collector in this repository used to carry its own
// copy of the same driver machinery: one goroutine running bounded work
// quanta, a quiesce/release handshake with stop-the-world pauses, a
// published worker loan that pauses interrupt (gcwork.LoanRef), and
// panic parking so a contained worker panic surfaces on the pause path
// instead of killing the driver goroutine. LXR's concurrent thread,
// G1's mark controller and Shenandoah's cycle controller each
// duplicated that loop; this package owns it once, parameterised by a
// per-collector CycleDriver that supplies only the collector-specific
// work.
package conctrl

import (
	"sync"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// CycleDriver supplies the collector-specific half of a concurrent
// driver. The controller calls it from its own goroutine; all driver
// state is therefore single-threaded except where pauses touch it, and
// pauses may only do so between Quiesce and Release.
type CycleDriver interface {
	// HasWork reports whether a quantum would find anything to do. It
	// is called with the controller's lock held and must be cheap and
	// non-blocking (atomics and driver-owned state only).
	HasWork() bool
	// Quantum performs one bounded slice of concurrent work with the
	// controller's lock released. width is the current borrow width
	// (≥ 1): how many pool workers a loan taken inside this quantum
	// should request. Loans must be published through the controller's
	// LoanRef so pauses can interrupt them.
	Quantum(width int)
}

// ReleaseNotifier is an optional CycleDriver extension: OnRelease runs
// during Release, with the controller lock held, so drivers can reset
// per-pause state (G1 clears its tracer-idle latch — pauses may have
// seeded new trace work). It must not block.
type ReleaseNotifier interface {
	OnRelease()
}

// StopNotifier is an optional CycleDriver extension: OnStop runs once
// when the controller goroutine exits — after Stop, or after a quantum
// panic was parked. failure is the parked panic (nil on a clean stop).
// Drivers use it to release collector-side waiters (Shenandoah wakes
// mutators stalled on the cycle rendezvous so they fail cleanly instead
// of hanging).
type StopNotifier interface {
	OnStop(failure any)
}

// Config parameterises a Controller.
type Config struct {
	// Stats, when non-nil, accrues each quantum's duration as
	// concurrent collector work. Drivers whose quanta contain pauses or
	// waiting (Shenandoah's full-cycle quantum) must pass nil and
	// account their concurrent slices themselves.
	Stats *vm.Stats
	// Width is the borrow width handed to Quantum (clamped to ≥ 1).
	Width int
	// Poll, when non-zero, makes an idle controller re-check HasWork on
	// this period instead of sleeping until Kick — for drivers whose
	// work condition is a heap-occupancy threshold no event announces
	// (Shenandoah's cycle trigger).
	Poll time.Duration
	// Trace, when non-nil, receives one span per work quantum on the
	// concurrent timeline shard (quanta can contain pauses — Shenandoah
	// runs whole cycles per quantum — which live on the GC shard, so
	// the timelines stay independently well-nested).
	Trace *trace.Tracer
}

// Controller runs a CycleDriver on a dedicated goroutine and owns the
// machinery every concurrent collector driver needs:
//
//   - the quiesce/release handshake: Quiesce blocks until the driver is
//     parked between quanta, so pause phases own all shared collector
//     state; Release lets it resume.
//   - the loan lifecycle: drivers publish outstanding worker loans in
//     LoanRef(); Quiesce and Stop interrupt them so the handshake
//     completes within one work item per borrowed worker.
//   - panic parking: a panic escaping a quantum (typically a
//     *gcwork.WorkerPanic re-raised by a loan's Reclaim) is parked and
//     re-raised by the next Quiesce — on the pause path, a mutator
//     goroutine protected by the workload guard — so driver failures
//     become Failed data points exactly like in-pause ones.
//   - the width plumbing: each quantum receives the configured borrow
//     width.
type Controller struct {
	d   CycleDriver
	cfg Config

	mu    sync.Mutex
	cond  *sync.Cond
	yield bool // a pause wants the driver quiescent
	quiet bool // the driver acknowledges quiescence
	stopd bool

	// loan publishes the outstanding worker loan so Quiesce/Stop can
	// interrupt it without racing loan adoption.
	loan gcwork.LoanRef

	// failure holds a panic recovered from a quantum, guarded by mu,
	// re-raised by the next Quiesce.
	failure any

	started bool
	done    chan struct{}
}

// NewController creates a controller around a driver. Call Start to
// launch the goroutine.
func NewController(d CycleDriver, cfg Config) *Controller {
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	c := &Controller{d: d, cfg: cfg, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// LoanRef returns the controller's published-loan slot. Drivers Adopt
// loans into it (so pauses can interrupt them) and Drop after Reclaim.
func (c *Controller) LoanRef() *gcwork.LoanRef { return &c.loan }

// Width returns the configured borrow width.
func (c *Controller) Width() int { return c.cfg.Width }

// Start launches the driver goroutine.
func (c *Controller) Start() {
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	go c.run()
}

// Stop terminates the driver goroutine and waits for it to exit. An
// outstanding loan is interrupted. Safe to call more than once, or on a
// controller that was never started.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	if !c.stopd {
		c.stopd = true
		c.loan.Interrupt()
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	<-c.done
}

// Quiesce blocks until the driver is parked between quanta. Called with
// the world stopped, before pause phases touch collector state. An
// outstanding worker loan is interrupted so the handshake completes
// within one work item per borrowed worker. A panic the driver parked
// since the last pause is re-raised here, on the caller's goroutine.
func (c *Controller) Quiesce() {
	c.mu.Lock()
	c.yield = true
	c.loan.Interrupt()
	c.cond.Broadcast()
	for !c.quiet {
		c.cond.Wait()
	}
	f := c.failure
	c.failure = nil
	c.mu.Unlock()
	if f != nil {
		panic(f)
	}
}

// Release lets the driver resume after a pause. The driver's OnRelease
// hook (if any) runs first, under the controller lock.
func (c *Controller) Release() {
	c.mu.Lock()
	c.yield = false
	c.loan.Disarm()
	if rn, ok := c.d.(ReleaseNotifier); ok {
		rn.OnRelease()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Kick wakes an idle controller so it re-evaluates HasWork — called
// when work is submitted from outside a pause (Shenandoah's cycle
// requests). Pauses do not need it: Release already wakes the driver.
func (c *Controller) Kick() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// InjectFailure parks r as if a quantum had panicked, for the next
// Quiesce to re-raise (test instrumentation for the panic-parking
// contract).
func (c *Controller) InjectFailure(r any) {
	c.mu.Lock()
	c.failure = r
	c.mu.Unlock()
}

func (c *Controller) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for (c.yield || !c.d.HasWork()) && !c.stopd {
			c.quiet = true
			c.cond.Broadcast()
			if c.cfg.Poll > 0 && !c.yield {
				// Occupancy-polling driver: re-check HasWork on the
				// poll period. quiet stays true across the sleep, so a
				// (hypothetical) pause quiesces instantly.
				c.mu.Unlock()
				time.Sleep(c.cfg.Poll)
				c.mu.Lock()
				continue
			}
			c.cond.Wait()
		}
		if c.stopd {
			c.quiet = true
			c.cond.Broadcast()
			c.mu.Unlock()
			c.notifyStop(nil)
			return
		}
		c.quiet = false
		c.mu.Unlock()

		t0 := time.Now()
		w := c.cfg.Width
		if !c.guardedQuantum(w) {
			return
		}
		if c.cfg.Stats != nil {
			c.cfg.Stats.AddConcurrentWork(time.Since(t0))
		}
		if tr := c.cfg.Trace; tr != nil {
			tr.Span(trace.ShardConc, trace.NameQuantum, t0, time.Since(t0), uint64(w), 0)
		}
	}
}

// guardedQuantum runs one quantum with panic containment: a recovered
// panic is parked in c.failure for the next Quiesce to re-raise on the
// pause path, the driver acknowledges permanent quiescence, OnStop
// fires, and false terminates the controller goroutine. The collector
// degrades to its in-pause processing paths.
func (c *Controller) guardedQuantum(width int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			c.loan.Drop()
			c.mu.Lock()
			c.failure = r
			c.quiet = true
			c.cond.Broadcast()
			c.mu.Unlock()
			c.notifyStop(r)
			ok = false
		}
	}()
	c.d.Quantum(width)
	return true
}

func (c *Controller) notifyStop(failure any) {
	if sn, ok := c.d.(StopNotifier); ok {
		sn.OnStop(failure)
	}
}
