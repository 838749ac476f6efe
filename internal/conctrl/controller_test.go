package conctrl

import (
	"sync/atomic"
	"testing"
	"time"
)

// countDriver is a minimal CycleDriver: it has work until budget quanta
// have run.
type countDriver struct {
	budget   atomic.Int64
	quanta   atomic.Int64
	panicOn  atomic.Bool
	released atomic.Int64
	stopped  atomic.Int64
}

func (d *countDriver) HasWork() bool { return d.budget.Load() > 0 }

func (d *countDriver) Quantum() {
	if d.panicOn.Load() {
		panic("driver quantum failure")
	}
	d.budget.Add(-1)
	d.quanta.Add(1)
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
	c := NewController(d, Config{})
	c.Start()
	defer c.Stop()
	waitFor(t, "initial budget", func() bool { return d.quanta.Load() == 5 })

	d.budget.Store(2)
	c.Kick()
	waitFor(t, "kicked budget", func() bool { return d.quanta.Load() == 7 })
}

// TestControllerQuiesceRelease: Quiesce parks the driver even with work
// outstanding; Release (which must fire OnRelease) resumes it.
func TestControllerQuiesceRelease(t *testing.T) {
	d := &countDriver{}
	d.budget.Store(1 << 30)
	c := NewController(d, Config{})
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
	c := NewController(d, Config{})
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
	c := NewController(d, Config{Poll: time.Millisecond})
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
	c := NewController(d, Config{})
	c.Stop()
	c.Start()
	c.Stop()
	c.Stop()
}
