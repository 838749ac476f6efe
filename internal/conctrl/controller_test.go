package conctrl

import (
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
)

// countDriver is a minimal CycleDriver: it has work until budget quanta
// have run.
type countDriver struct {
	budget   atomic.Int64
	quanta   atomic.Int64
	widths   chan int
	panicOn  atomic.Bool
	released atomic.Int64
	stopped  atomic.Int64
}

func (d *countDriver) HasWork() bool { return d.budget.Load() > 0 }

func (d *countDriver) Quantum(width int) {
	if d.panicOn.Load() {
		panic("driver quantum failure")
	}
	d.budget.Add(-1)
	d.quanta.Add(1)
	if d.widths != nil {
		select {
		case d.widths <- width:
		default:
		}
	}
}

func (d *countDriver) OnRelease() { d.released.Add(1) }

func (d *countDriver) OnStop(failure any) { d.stopped.Add(1) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestControllerRunsQuantaAndParks: the controller drains the driver's
// budget, parks, and resumes when kicked after new work appears.
func TestControllerRunsQuantaAndParks(t *testing.T) {
	d := &countDriver{}
	d.budget.Store(5)
	c := NewController(d, Config{Width: 3})
	c.Start()
	defer c.Stop()
	waitFor(t, "initial budget", func() bool { return d.quanta.Load() == 5 })

	d.budget.Store(2)
	c.Kick()
	waitFor(t, "kicked budget", func() bool { return d.quanta.Load() == 7 })
}

// TestControllerStaticWidth: every quantum receives
// the configured width.
func TestControllerStaticWidth(t *testing.T) {
	d := &countDriver{widths: make(chan int, 8)}
	d.budget.Store(3)
	c := NewController(d, Config{Width: 3})
	c.Start()
	defer c.Stop()
	for i := 0; i < 3; i++ {
		if w := <-d.widths; w != 3 {
			t.Fatalf("quantum width %d, want 3", w)
		}
	}
}

// TestControllerQuiesceRelease: Quiesce parks the driver even with work
// outstanding; Release (which must fire OnRelease) resumes it.
func TestControllerQuiesceRelease(t *testing.T) {
	d := &countDriver{}
	d.budget.Store(1 << 30)
	c := NewController(d, Config{Width: 1})
	c.Start()
	defer func() {
		d.budget.Store(0)
		c.Stop()
	}()

	c.Quiesce()
	before := d.quanta.Load()
	time.Sleep(20 * time.Millisecond)
	if got := d.quanta.Load(); got != before {
		t.Fatalf("driver ran %d quanta while quiescent", got-before)
	}
	c.Release()
	if d.released.Load() != 1 {
		t.Fatal("OnRelease did not fire")
	}
	waitFor(t, "resume after release", func() bool { return d.quanta.Load() > before })
}

// TestControllerPanicParkedAndDelivered: a quantum panic parks the
// failure, fires OnStop, and the next Quiesce re-raises it on the
// caller; a subsequent Quiesce is clean.
func TestControllerPanicParkedAndDelivered(t *testing.T) {
	d := &countDriver{}
	d.budget.Store(1 << 30)
	d.panicOn.Store(true)
	c := NewController(d, Config{Width: 1})
	c.Start()
	waitFor(t, "driver goroutine exit", func() bool { return d.stopped.Load() == 1 })

	func() {
		defer func() {
			if r := recover(); r != "driver quantum failure" {
				t.Fatalf("quiesce delivered %v, want the quantum failure", r)
			}
		}()
		c.Quiesce()
		t.Fatal("quiesce did not re-raise the parked failure")
	}()
	c.Quiesce() // consumed: clean
	c.Release()
	c.Stop() // goroutine already gone: must not hang
}

// TestControllerPollMode: with Poll set and no Kick, the controller
// notices newly appeared work by itself.
func TestControllerPollMode(t *testing.T) {
	d := &countDriver{}
	c := NewController(d, Config{Width: 1, Poll: time.Millisecond})
	c.Start()
	defer c.Stop()
	time.Sleep(5 * time.Millisecond) // idle: no work yet
	d.budget.Store(3)                // appears without any Kick
	waitFor(t, "poll pickup", func() bool { return d.quanta.Load() == 3 })
}

// TestControllerStopUnstarted: Stop on a never-started controller is a
// no-op, and double Stop does not hang.
func TestControllerStopUnstarted(t *testing.T) {
	d := &countDriver{}
	c := NewController(d, Config{Width: 1})
	c.Stop()
	c.Start()
	c.Stop()
	c.Stop()
}

// lendDriver lends real pool workers each quantum, so loan interruption
// through the controller's LoanRef can be exercised end to end.
type lendDriver struct {
	pool      *gcwork.Pool
	ctl       *Controller
	processed atomic.Int64
	pending   [][]mem.Address // driver-goroutine state, pause-touched only under quiesce
}

func (d *lendDriver) HasWork() bool { return len(d.pending) > 0 }

func (d *lendDriver) Quantum(width int) {
	segs := d.pending
	d.pending = nil
	loan := d.pool.Lend(width, segs, nil, func(w *gcwork.Worker, a mem.Address) {
		d.processed.Add(1)
	}, nil)
	d.ctl.LoanRef().Adopt(loan)
	loan.Reclaim()
	d.ctl.LoanRef().Drop()
	if loan.HasRemainder() {
		d.pending = loan.TakeRemainder()
	}
}

// TestControllerLoanInterruptConservation: pauses (Quiesce/Release)
// repeatedly interrupt the driver's loans; every seeded item must be
// processed exactly once, with the interrupted remainders resuming on
// later quanta.
func TestControllerLoanInterruptConservation(t *testing.T) {
	pool := gcwork.NewPool(4)
	defer pool.Stop()
	d := &lendDriver{pool: pool}
	const total = 200000
	seed := make([]mem.Address, total)
	for i := range seed {
		seed[i] = mem.Address(i)
	}
	d.pending = [][]mem.Address{seed}
	c := NewController(d, Config{Width: 2})
	d.ctl = c
	c.Start()
	defer c.Stop()

	for d.processed.Load() < total {
		c.Quiesce()
		// World "stopped": driver parked, loan reclaimed.
		c.Release()
	}
	if got := d.processed.Load(); got != total {
		t.Fatalf("processed %d items, want exactly %d", got, total)
	}
}
