package gcwork_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
)

func TestDrainProcessesTransitiveWork(t *testing.T) {
	p := gcwork.NewPool(4)
	// Each item n spawns items n-1 ... 1; total visits = sum over seeds.
	var visits atomic.Int64
	seeds := []mem.Address{5, 5, 5}
	p.Drain(seeds, nil, func(w *gcwork.Worker, a mem.Address) {
		visits.Add(1)
		if a > 1 {
			w.Push(a - 1)
		}
	}, nil)
	if got := visits.Load(); got != 15 {
		t.Fatalf("visits %d, want 15", got)
	}
}

func TestDrainLargeFanOut(t *testing.T) {
	p := gcwork.NewPool(4)
	var visits atomic.Int64
	seeds := make([]mem.Address, 10000)
	for i := range seeds {
		seeds[i] = mem.Address(i + 1)
	}
	p.Drain(seeds, nil, func(w *gcwork.Worker, a mem.Address) {
		visits.Add(1)
	}, nil)
	if visits.Load() != 10000 {
		t.Fatalf("visits %d", visits.Load())
	}
}

func TestDrainSetupTeardownPerWorker(t *testing.T) {
	p := gcwork.NewPool(3)
	var setups, teardowns atomic.Int64
	p.Drain([]mem.Address{1, 2, 3},
		func(w *gcwork.Worker) { setups.Add(1); w.Scratch = w.ID },
		func(w *gcwork.Worker, a mem.Address) {
			if w.Scratch.(int) != w.ID {
				t.Error("scratch lost")
			}
		},
		func(w *gcwork.Worker) { teardowns.Add(1) })
	if setups.Load() != 3 || teardowns.Load() != 3 {
		t.Fatalf("setups %d teardowns %d", setups.Load(), teardowns.Load())
	}
}

func TestParallelForCoversRange(t *testing.T) {
	p := gcwork.NewPool(4)
	covered := make([]atomic.Int32, 1000)
	p.ParallelFor(1000, func(_, s, e int) {
		for i := s; i < e; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
	p.ParallelFor(0, func(_, s, e int) { t.Error("zero-length ran") })
}

// TestDrainZeroSeeds: termination must be detected promptly with no
// work at all (setup/teardown still run on every worker).
func TestDrainZeroSeeds(t *testing.T) {
	p := gcwork.NewPool(4)
	defer p.Stop()
	for round := 0; round < 50; round++ {
		var setups atomic.Int64
		p.Drain(nil,
			func(w *gcwork.Worker) { setups.Add(1) },
			func(w *gcwork.Worker, a mem.Address) { t.Error("work from nothing") },
			nil)
		if setups.Load() != 4 {
			t.Fatalf("round %d: setups %d", round, setups.Load())
		}
	}
}

// TestPoolWorkersPersistAcrossPhases: one pool must reuse its worker
// goroutines across many Drain/ParallelFor phases — the per-pause spawn
// cost the scheduler exists to eliminate. Spawned() counts goroutine
// creations over the pool's lifetime.
func TestPoolWorkersPersistAcrossPhases(t *testing.T) {
	p := gcwork.NewPool(4)
	defer p.Stop()
	var visits atomic.Int64
	for phase := 0; phase < 20; phase++ {
		p.Drain([]mem.Address{8, 8, 8}, nil, func(w *gcwork.Worker, a mem.Address) {
			visits.Add(1)
			if a > 1 {
				w.Push(a - 1)
			}
		}, nil)
		p.ParallelFor(100, func(_, s, e int) {})
	}
	if got := visits.Load(); got != 20*3*8 {
		t.Fatalf("visits %d, want %d", got, 20*3*8)
	}
	if sp := p.Spawned(); sp != 4 {
		t.Fatalf("spawned %d goroutines across 40 phases, want 4 (persistent workers)", sp)
	}
}

// TestDrainStressPushStorm exercises publishing and taking chunks under
// -race: a deep, bushy work graph keeps every worker's local stack
// churning and the shared stack constantly fed and drained.
func TestDrainStressPushStorm(t *testing.T) {
	p := gcwork.NewPool(8)
	defer p.Stop()
	for round := 0; round < 4; round++ {
		var visits atomic.Int64
		// Work item encoding: depth in low bits; each item of depth d
		// spawns 2 items of depth d-1. Seeds at depth 12: total visits
		// per seed = 2^12 - 1.
		const depth = 12
		seeds := []mem.Address{depth, depth, depth, depth}
		p.Drain(seeds, nil, func(w *gcwork.Worker, a mem.Address) {
			visits.Add(1)
			if a > 1 {
				w.Push(a - 1)
				w.Push(a - 1)
			}
		}, nil)
		want := int64(len(seeds)) * (1<<depth - 1)
		if got := visits.Load(); got != want {
			t.Fatalf("round %d: visits %d, want %d", round, got, want)
		}
	}
}

// TestDrainSegsSegmentInjection drains segment-granular seeds (the path
// AddrBuffer.TakeSegs and the tracer inbox use).
func TestDrainSegsSegmentInjection(t *testing.T) {
	p := gcwork.NewPool(4)
	defer p.Stop()
	var b gcwork.AddrBuffer
	for i := 1; i <= 5000; i++ {
		b.Push(mem.Address(i))
	}
	var sum atomic.Int64
	p.DrainSegs(b.TakeSegs(), nil, func(w *gcwork.Worker, a mem.Address) {
		sum.Add(int64(a))
	}, nil)
	if want := int64(5000) * 5001 / 2; sum.Load() != want {
		t.Fatalf("sum %d, want %d", sum.Load(), want)
	}
	if b.Len() != 0 {
		t.Fatal("TakeSegs did not clear buffer")
	}
}

// TestSharedAddrQueueConcurrent hammers the queue from many producers
// while a consumer drains, verifying nothing is lost.
func TestSharedAddrQueueConcurrent(t *testing.T) {
	var q gcwork.SharedAddrQueue
	const producers = 8
	const perProducer = 10000
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if i%16 == 0 {
					q.Append([]mem.Address{mem.Address(pr*perProducer + i)})
				} else {
					q.Push(mem.Address(pr*perProducer + i))
				}
			}
		}(pr)
	}
	var got int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, s := range q.TakeSegs() {
				got += int64(len(s))
			}
			if got == producers*perProducer {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got != producers*perProducer {
		t.Fatalf("drained %d, want %d", got, producers*perProducer)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty: %d", q.Len())
	}
}

// benchDrainWork is the shared workload for BenchmarkDrain: a transitive
// closure of ~64k visits from 16 seeds.
const benchDepth = 11

func benchSeeds() []mem.Address {
	s := make([]mem.Address, 16)
	for i := range s {
		s[i] = benchDepth
	}
	return s
}

// BenchmarkDrain compares the pool ("new") against the first
// implementation ("legacy") on an identical transitive workload. Both
// share work through one mutex-and-cond chunk stack; legacy spawns its
// workers on every drain and copies every seed chunk.
func BenchmarkDrain(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		p := gcwork.NewPool(4)
		defer p.Stop()
		var sink atomic.Int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Drain(benchSeeds(), nil, func(w *gcwork.Worker, a mem.Address) {
				sink.Add(1)
				if a > 1 {
					w.Push(a - 1)
					w.Push(a - 1)
				}
			}, nil)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		p := &legacyPool{n: 4}
		var sink atomic.Int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.drain(benchSeeds(), func(w *legacyWorker, a mem.Address) {
				sink.Add(1)
				if a > 1 {
					w.push(a - 1)
					w.push(a - 1)
				}
			})
		}
	})
}

// BenchmarkDrainFanOut isolates work-distribution cost: a large flat
// seed with a trivial body, so chunk hand-off dominates. The legacy
// implementation copies every seed chunk; the pool seeds its stack with
// zero-copy views.
func BenchmarkDrainFanOut(b *testing.B) {
	seeds := make([]mem.Address, 1<<16)
	for i := range seeds {
		seeds[i] = mem.Address(i)
	}
	b.Run("new", func(b *testing.B) {
		p := gcwork.NewPool(4)
		defer p.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Drain(seeds, nil, func(w *gcwork.Worker, a mem.Address) {}, nil)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		p := &legacyPool{n: 4}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.drain(seeds, func(w *legacyWorker, a mem.Address) {})
		}
	})
}

// BenchmarkDrainEmpty measures pure per-phase dispatch overhead — the
// cost a pause pays for every one of its parallel phases even when a
// phase has little work (dozens of these run inside each STW pause):
// waking parked workers against spawning fresh ones.
func BenchmarkDrainEmpty(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		p := gcwork.NewPool(4)
		defer p.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Drain(nil, nil, func(w *gcwork.Worker, a mem.Address) {}, nil)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		p := &legacyPool{n: 4}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.drain(nil, func(w *legacyWorker, a mem.Address) {})
		}
	})
}

func TestAddrBuffer(t *testing.T) {
	var b gcwork.AddrBuffer
	for i := 1; i <= 3000; i++ { // crosses segment boundaries
		b.Push(mem.Address(i))
	}
	if b.Len() != 3000 {
		t.Fatalf("len %d", b.Len())
	}
	out := b.Take()
	if len(out) != 3000 || out[0] != 1 || out[2999] != 3000 {
		t.Fatal("Take lost or reordered items")
	}
	if b.Len() != 0 {
		t.Fatal("Take did not clear")
	}
}

func TestSharedAddrQueue(t *testing.T) {
	var q gcwork.SharedAddrQueue
	q.Push(1)
	q.Append([]mem.Address{2, 3})
	q.Append(nil)
	if q.Len() != 3 {
		t.Fatalf("len %d", q.Len())
	}
	if got := q.Take(); len(got) != 3 {
		t.Fatalf("take %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("not cleared")
	}
}

// TestWorkerPanicRoutedToDrainCaller: a panic in a drain body must not
// kill the process — it must surface, wrapped in *WorkerPanic, on the
// goroutine that dispatched the phase, and the pool must stay usable.
func TestWorkerPanicRoutedToDrainCaller(t *testing.T) {
	p := gcwork.NewPool(4)
	defer p.Stop()
	seeds := make([]mem.Address, 1000)
	for i := range seeds {
		seeds[i] = mem.Address(i + 1)
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Drain(seeds, nil, func(w *gcwork.Worker, a mem.Address) {
			if a == 500 {
				panic("boom at 500")
			}
			if a > 0 && a < 100 {
				w.Push(a + 10000) // keep transitive work flowing
			}
		}, nil)
	}()
	wp, ok := recovered.(*gcwork.WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *gcwork.WorkerPanic", recovered, recovered)
	}
	if wp.Value != "boom at 500" {
		t.Fatalf("panic value %v, want original", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("worker stack not captured")
	}
	// Abandoned work from the aborted phase must not leak into the next.
	var visits atomic.Int64
	p.Drain([]mem.Address{1, 2}, nil, func(w *gcwork.Worker, a mem.Address) { visits.Add(1) }, nil)
	if visits.Load() != 2 {
		t.Fatalf("post-panic Drain visited %d, want 2", visits.Load())
	}
}

// TestWorkerPanicRoutedToParallelForCaller: same containment for the
// static-partition path.
func TestWorkerPanicRoutedToParallelForCaller(t *testing.T) {
	p := gcwork.NewPool(4)
	defer p.Stop()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.ParallelFor(1000, func(_, s, e int) {
			for i := s; i < e; i++ {
				if i == 321 {
					panic(i)
				}
			}
		})
	}()
	wp, ok := recovered.(*gcwork.WorkerPanic)
	if !ok || wp.Value != 321 {
		t.Fatalf("recovered %v, want *WorkerPanic{321}", recovered)
	}
	covered := make([]atomic.Int32, 100)
	p.ParallelFor(100, func(_, s, e int) {
		for i := s; i < e; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("post-panic ParallelFor: index %d covered %d times", i, covered[i].Load())
		}
	}
}

// TestSharedAddrQueuePopSeg: PopSeg must hand back one segment at a
// time, keep the length counter exact, and eventually drain everything.
func TestSharedAddrQueuePopSeg(t *testing.T) {
	var q gcwork.SharedAddrQueue
	total := 0
	for i := 0; i < 10; i++ {
		seg := make([]mem.Address, i+1)
		for j := range seg {
			seg[j] = mem.Address(100*i + j)
		}
		q.Append(seg)
		total += len(seg)
	}
	q.Push(999)
	total++
	got := 0
	for {
		s := q.PopSeg()
		if s == nil {
			break
		}
		if len(s) == 0 {
			t.Fatal("PopSeg returned an empty segment")
		}
		got += len(s)
		if q.Len() != total-got {
			t.Fatalf("Len %d after popping %d of %d", q.Len(), got, total)
		}
	}
	if got != total {
		t.Fatalf("PopSeg drained %d, want %d", got, total)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty: %d", q.Len())
	}
}

// TestWorkerStatsCountPauseItems: utilization telemetry must count every
// item of every phase kind — drained addresses and ParallelFor indices.
func TestWorkerStatsCountPauseItems(t *testing.T) {
	p := gcwork.NewPool(2)
	defer p.Stop()
	p.Drain([]mem.Address{1, 2, 3, 4, 5}, nil, func(w *gcwork.Worker, a mem.Address) {}, nil)
	p.ParallelFor(7, func(_, _, _ int) {})
	var pause int64
	for _, ws := range p.WorkerStats() {
		pause += ws.PauseItems
	}
	if pause != 12 {
		t.Fatalf("worker stats pause items = %d, want 12", pause)
	}
}
