package conctrl

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
)

// TestStressLoansAndPauses is the -race stress for the control plane:
// a driver lending real pool workers, pauses interrupting loans through
// Quiesce/Release, and pause-side work (Drain) interleaved between them
// — the full lifecycle the collectors exercise, compressed. The
// assertion is conservation: every item seeded to the driver or drained
// by a "pause" is processed exactly once.
func TestStressLoansAndPauses(t *testing.T) {
	pool := gcwork.NewPool(4)
	defer pool.Stop()

	d := &lendDriver{pool: pool}
	c := NewController(d, Config{Width: 2})
	d.ctl = c

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
	// quiescent (the ownership rule pauses obey).
	d.pending = [][]mem.Address{seed(perSeed)}
	c.Start()
	defer c.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Chaos: pause-side drains racing the loans for the pool's
	// dispatch lock.
	var pauseItems atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			items := seed(64)
			pool.Drain(items, nil, func(w *gcwork.Worker, a mem.Address) {
				pauseItems.Add(1)
			}, nil)
		}
	}()

	// Main thread: pauses that interrupt loans and refill the driver.
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
	close(stop)
	wg.Wait()

	if got := d.processed.Load(); got != driverTotal {
		t.Fatalf("driver processed %d items, want exactly %d (loan interrupt lost or duplicated work)", got, driverTotal)
	}
	t.Logf("stress: %d driver items, %d pause items", d.processed.Load(), pauseItems.Load())
}

// TestStressResumeInPause interleaves interrupted loans with in-pause
// resumption (Loan.ResumeInPause) — the loan-aware pause path — and
// asserts exact conservation across the loan/resume boundary.
func TestStressResumeInPause(t *testing.T) {
	pool := gcwork.NewPool(4)
	defer pool.Stop()

	var processed atomic.Int64
	const total = 300000
	seed := make([]mem.Address, total)
	for i := range seed {
		seed[i] = mem.Address(i + 1)
	}

	pending := [][]mem.Address{seed}
	for len(pending) > 0 {
		loan := pool.Lend(2, pending, nil, func(w *gcwork.Worker, a mem.Address) {
			processed.Add(1)
		}, nil)
		pending = nil
		// Interrupt quickly so a remainder usually survives.
		time.Sleep(50 * time.Microsecond)
		loan.Interrupt()
		loan.Reclaim()
		if loan.HasRemainder() {
			// Alternate the two consumption paths: resume across all
			// pool workers inside the "pause", or fold back into the
			// next loan.
			if processed.Load()%2 == 0 {
				loan.ResumeInPause(nil, func(w *gcwork.Worker, a mem.Address) {
					processed.Add(1)
				}, nil)
			} else {
				pending = loan.TakeRemainder()
			}
		}
	}
	if got := processed.Load(); got != total {
		t.Fatalf("processed %d items, want exactly %d", got, total)
	}
}
