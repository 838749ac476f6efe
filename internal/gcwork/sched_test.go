package gcwork

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/mem"
)

// waiting reports how many workers wait on the pool's empty stack.
func (p *Pool) waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle
}

// TestPanicAfterOthersWait: the one seed goes to one worker, which
// panics only once every other worker waits on the empty stack. Nothing
// but the panic path can wake them then, so Drain returns only if that
// path ends the drain; the test waits for it against its own deadline.
// The pool must then drain a transitive workload exactly.
func TestPanicAfterOthersWait(t *testing.T) {
	const n = 4
	p := NewPool(n) // not stopped on failure: Stop would wait for the stuck drain
	for round := 0; round < 20; round++ {
		raised := make(chan any, 1)
		go func() {
			defer func() { raised <- recover() }()
			p.Drain([]mem.Address{1}, nil, func(w *Worker, a mem.Address) {
				for p.waiting() < n-1 {
					runtime.Gosched()
				}
				panic("last one out")
			}, nil)
		}()
		select {
		case r := <-raised:
			if wp, ok := r.(*WorkerPanic); !ok || wp.Value != "last one out" {
				t.Fatalf("round %d: Drain raised %v, want *WorkerPanic{last one out}", round, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Drain still blocked 10 s after the panic: the waiting workers were never woken", round)
		}
		var visits atomic.Int64
		p.Drain([]mem.Address{10, 10}, nil, func(w *Worker, a mem.Address) {
			visits.Add(1)
			if a > 1 {
				w.Push(a - 1)
				w.Push(a - 1)
			}
		}, nil)
		if got, want := visits.Load(), int64(2*(1<<10-1)); got != want {
			t.Fatalf("round %d: post-panic Drain visited %d, want %d", round, got, want)
		}
	}
	p.Stop()
}
