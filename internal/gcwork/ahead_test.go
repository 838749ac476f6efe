package gcwork_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
)

// Worker.Ahead's contract: the item it returns for k is the one the
// k-th pop from now hands this worker, provided nothing is pushed in
// between. The local stack is the owner's alone — publishing moves its
// oldest items to the shared stack, and other workers take chunks only
// from there — so the contract must hold on every worker however chunks
// move between them.
//
// Each item with a fan-out pushes that many children: 3000 forces two
// publishes out of one call (the stack publishes a chunk of 512 at
// 1024), and the published chunks are what the other workers take.
// After a call that pushed, the worker re-reads its lookahead; after
// one that did not, the lookahead it already holds must simply shift.
func TestAheadPredictsPopsAcrossPublishAndSteal(t *testing.T) {
	const depth = 12
	for _, workers := range []int{1, 4} {
		pool := gcwork.NewPool(workers)
		pred := make([][]mem.Address, workers) // per worker: the items it expects next, in pop order
		var visits, checked, takers atomic.Int64
		var owner atomic.Int32      // the worker that took the seed segment
		ran := make([]int, workers) // items each worker processed
		var bad atomic.Value
		fanOut := func(a mem.Address) int {
			switch {
			case a >= 1<<40: // seeds
				return 3000
			case a%97 == 0:
				return 5
			case a%11 == 0:
				return 1
			}
			return 0
		}
		var next atomic.Uint64 // child item values, all distinct
		next.Store(1000)
		seeds := []mem.Address{1 << 40, 1<<40 + 1, 1<<40 + 2}
		pool.Drain(seeds, nil, func(w *gcwork.Worker, a mem.Address) {
			visits.Add(1)
			ran[w.ID]++
			if a >= 1<<40 {
				owner.Store(int32(w.ID))
			}
			exp := pred[w.ID]
			if len(exp) > 0 {
				if exp[0] != a {
					bad.Store([2]mem.Address{exp[0], a})
				}
				checked.Add(1)
				exp = exp[1:]
			}
			n := fanOut(a)
			for i := 0; i < n; i++ {
				w.Push(mem.Address(next.Add(1)))
			}
			if a >= 1<<40 && workers > 1 {
				// Hold the seeds' owner until another worker has run one
				// of the chunks it just published, or the drain is over
				// before the other workers have woken.
				for wait := time.Now(); takers.Load() == 0 && time.Since(wait) < 5*time.Second; {
					runtime.Gosched()
				}
			} else if a < 1<<40 && w.ID != int(owner.Load()) {
				takers.Add(1)
			}
			if n > 0 {
				exp = exp[:0]
			}
			// The lookahead never has holes, and what it already showed
			// stays put until something is pushed.
			for k := 1; k <= depth; k++ {
				v, ok := w.Ahead(k)
				if !ok {
					if _, later := w.Ahead(k + 1); later {
						bad.Store([2]mem.Address{mem.Address(k), 0})
					}
					break
				}
				if k <= len(exp) {
					if exp[k-1] != v {
						bad.Store([2]mem.Address{exp[k-1], v})
					}
				} else {
					exp = append(exp, v)
				}
			}
			pred[w.ID] = exp
		}, nil)
		pool.Stop()
		if v := bad.Load(); v != nil {
			t.Fatalf("%d workers: Ahead predicted %v, the pop delivered otherwise", workers, v)
		}
		if checked.Load() < visits.Load()/2 {
			t.Fatalf("%d workers: only %d of %d pops were predicted", workers, checked.Load(), visits.Load())
		}
		// The seeds are one chunk on the shared stack, so one worker
		// takes them all; anything another worker ran, it took from a
		// chunk the seeds' owner published.
		busy := 0
		for _, n := range ran {
			if n > 0 {
				busy++
			}
		}
		if workers > 1 && busy < 2 {
			t.Fatalf("one worker ran everything: the publish boundary was not exercised")
		}
	}
	if _, ok := (&gcwork.Worker{}).Ahead(1); ok {
		t.Fatal("Ahead on an empty stack reported an item")
	}
}
