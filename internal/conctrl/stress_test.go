package conctrl

import (
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/mem"
)

// sliceDriver processes up to sliceItems seeded items per quantum on the
// controller's goroutine, the way LXR's decrement slice does.
type sliceDriver struct {
	processed atomic.Int64
	pending   [][]mem.Address // driver-goroutine state, pause-touched only under quiesce
}

const sliceItems = 256

func (d *sliceDriver) HasWork() bool { return len(d.pending) > 0 }

func (d *sliceDriver) Quantum() {
	for budget := sliceItems; budget > 0 && len(d.pending) > 0; {
		s := d.pending[0]
		n := min(budget, len(s))
		d.processed.Add(int64(n))
		budget -= n
		if n == len(s) {
			d.pending = d.pending[1:]
		} else {
			d.pending[0] = s[n:]
		}
	}
}

// TestStressQuantaAndPauses is the -race stress for the control plane:
// a driver running bounded quanta over state that pauses append to only
// between Quiesce and Release — the ownership rule every collector's
// driver relies on. The assertion is conservation: every item seeded to
// the driver is processed exactly once; -race checks the hand-off.
func TestStressQuantaAndPauses(t *testing.T) {
	d := &sliceDriver{}
	c := NewController(d, Config{})

	const (
		rounds  = 60
		perSeed = 3000
	)
	var next atomic.Int64
	seed := func(n int) []mem.Address {
		out := make([]mem.Address, n)
		for i := range out {
			out[i] = mem.Address(next.Add(1))
		}
		return out
	}

	// Seed the driver before it starts; later seeds arrive only while
	// quiescent.
	d.pending = [][]mem.Address{seed(perSeed)}
	c.Start()
	defer c.Stop()

	// Main thread: pauses that quiesce the driver and refill it.
	driverTotal := int64(perSeed)
	for r := 0; r < rounds; r++ {
		c.Quiesce()
		if r < rounds-1 {
			d.pending = append(d.pending, seed(perSeed))
			driverTotal += perSeed
		}
		c.Release()
		time.Sleep(200 * time.Microsecond)
	}

	// Drain out: quiesce/release until the driver has processed all.
	deadline := time.Now().Add(20 * time.Second)
	for d.processed.Load() < driverTotal {
		if time.Now().After(deadline) {
			t.Fatalf("driver processed %d/%d items", d.processed.Load(), driverTotal)
		}
		c.Quiesce()
		c.Release()
		time.Sleep(100 * time.Microsecond)
	}
	c.Quiesce()
	if got := d.processed.Load(); got != driverTotal {
		t.Fatalf("driver processed %d items, want exactly %d", got, driverTotal)
	}
	c.Release()
}
