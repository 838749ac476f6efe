package vm_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/baselines"
	"lxr/internal/vm"
)

// legacyCounters is the pre-sharding reference implementation (one
// atomic cell per name behind a sync.Map), kept test-side so the
// sharded implementation can be checked for — and benchmarked against —
// exact total equivalence.
type legacyCounters struct {
	m sync.Map // string -> *atomic.Int64
}

func (l *legacyCounters) Add(name string, delta int64) {
	c, _ := l.m.LoadOrStore(name, new(atomic.Int64))
	c.(*atomic.Int64).Add(delta)
}

func (l *legacyCounters) Counter(name string) int64 {
	if c, ok := l.m.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// TestShardedCountersMatchLegacyTotals replays one deterministic
// operation stream — spread across goroutines with distinct shard IDs,
// as pause workers are — into both the sharded Stats
// and the legacy single-cell implementation, and requires identical
// totals for every counter. This is the merge-correctness guarantee:
// shard choice can never change what Counter/Counters report.
func TestShardedCountersMatchLegacyTotals(t *testing.T) {
	s := vm.NewStats()
	legacy := &legacyCounters{}
	names := []string{"decs", "incs", "dead", "skip", "promoted"}
	const workers = 8
	const opsPerWorker = 20000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < opsPerWorker; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				name := names[rng%uint64(len(names))]
				delta := int64(rng%7) - 2 // mixed signs, deterministic per worker
				s.AddAt(w+1, name, delta)
				legacy.Add(name, delta)
			}
		}(w)
	}
	wg.Wait()
	// Coordinator traffic on shard 0, plus a handle-based hot path.
	h := s.Handle("decs")
	for i := 0; i < 1000; i++ {
		s.Add("incs", 3)
		legacy.Add("incs", 3)
		h.AddAt(i%vm.CounterShards, 2)
		legacy.Add("decs", 2)
	}

	for _, name := range names {
		if got, want := s.Counter(name), legacy.Counter(name); got != want {
			t.Errorf("counter %q: sharded %d != legacy %d", name, got, want)
		}
	}
	all := s.Counters()
	for _, name := range names {
		if all[name] != legacy.Counter(name) {
			t.Errorf("Counters()[%q] = %d, want %d", name, all[name], legacy.Counter(name))
		}
	}
}

// TestCounterShardReduction: out-of-range shard indices must reduce
// into the fixed shard set without losing counts.
func TestCounterShardReduction(t *testing.T) {
	s := vm.NewStats()
	for shard := -3; shard < 3*vm.CounterShards; shard++ {
		s.AddAt(shard, "x", 1)
	}
	if got := s.Counter("x"); got != int64(3*vm.CounterShards+3) {
		t.Fatalf("counter = %d, want %d", got, 3*vm.CounterShards+3)
	}
}

// BenchmarkCounterAdd compares the legacy single-cell counter against
// the sharded implementation under parallel writers — the contention
// profile of parallel pause workers all bumping lxr.decrements. "handle" additionally skips the per-event
// name lookup, as the LXR hot paths do.
func BenchmarkCounterAdd(b *testing.B) {
	b.Run("legacy", func(b *testing.B) {
		l := &legacyCounters{}
		var id atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			id.Add(1)
			for pb.Next() {
				l.Add("ctr", 1)
			}
		})
	})
	b.Run("sharded", func(b *testing.B) {
		s := vm.NewStats()
		var id atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			shard := int(id.Add(1))
			for pb.Next() {
				s.AddAt(shard, "ctr", 1)
			}
		})
	})
	b.Run("handle", func(b *testing.B) {
		s := vm.NewStats()
		h := s.Handle("ctr")
		var id atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			shard := int(id.Add(1))
			for pb.Next() {
				h.AddAt(shard, 1)
			}
		})
	})
}

// ExampleStats_AddAt documents the shard convention.
func ExampleStats_AddAt() {
	s := vm.NewStats()
	s.AddAt(0, "lxr.decrements", 2) // coordinator
	s.AddAt(1, "lxr.decrements", 3) // worker 0
	s.AddAt(2, "lxr.decrements", 5) // worker 1
	fmt.Println(s.Counter("lxr.decrements"))
	// Output: 10
}

// TestPauseHistogramsPerKind: RecordPause must attribute each pause to
// its phase kind's histogram, with the histogram totals matching the
// pause records exactly.
func TestPauseHistogramsPerKind(t *testing.T) {
	s := vm.NewStats()
	now := time.Now()
	durs := map[string][]time.Duration{
		"young":   {1 * time.Millisecond, 3 * time.Millisecond, 9 * time.Millisecond},
		"mixed":   {20 * time.Millisecond},
		"rc+mark": {2 * time.Millisecond, 2 * time.Millisecond},
	}
	total := 0
	for kind, ds := range durs {
		for _, d := range ds {
			s.RecordPause(kind, now, d, 0)
			total++
		}
	}
	hs := s.PauseHistograms()
	if len(hs) != len(durs) {
		t.Fatalf("got %d kinds, want %d", len(hs), len(durs))
	}
	sum := int64(0)
	for kind, ds := range durs {
		h := hs[kind]
		if h == nil {
			t.Fatalf("no histogram for %q", kind)
		}
		if h.Count() != int64(len(ds)) {
			t.Errorf("%q: count %d, want %d", kind, h.Count(), len(ds))
		}
		var want int64
		for _, d := range ds {
			want += int64(d)
		}
		if h.Sum() != want {
			t.Errorf("%q: sum %d, want %d", kind, h.Sum(), want)
		}
		sum += h.Count()
	}
	if sum != int64(s.PauseCount()) {
		t.Errorf("histogram counts %d != pause records %d", sum, s.PauseCount())
	}
	if got := hs["mixed"].Max(); got != int64(20*time.Millisecond) {
		t.Errorf("mixed max %d", got)
	}
	// Clone independence: mutating the snapshot must not leak back.
	hs["young"].Record(1)
	if s.PauseHistograms()["young"].Count() != 3 {
		t.Error("PauseHistograms returned a live reference")
	}
}

// TestStopTheWorldTagged: the refined kind returned by the pause body
// must win over the provisional kind.
func TestStopTheWorldTagged(t *testing.T) {
	v := vm.New(baselines.NewSerial(16<<20), 4)
	defer v.Shutdown()
	v.StopTheWorldTagged("young", func() string { return "mixed" })
	v.StopTheWorldTagged("young", func() string { return "" })
	pauses := v.Stats.Pauses()
	// The Serial plan may have paused during boot; look at the last two.
	k1, k2 := pauses[len(pauses)-2].Kind, pauses[len(pauses)-1].Kind
	if k1 != "mixed" || k2 != "young" {
		t.Fatalf("kinds %q, %q; want mixed, young", k1, k2)
	}
	hs := v.Stats.PauseHistograms()
	if hs["mixed"] == nil || hs["mixed"].Count() != 1 {
		t.Fatal("refined kind not attributed to its histogram")
	}
}

// TestStopTheWorldPanicRestartsWorld: a panic inside a pause (contained
// worker panics are re-raised there) must not leave the world stopped —
// sibling mutators must be able to continue after the panic propagates.
func TestStopTheWorldPanicRestartsWorld(t *testing.T) {
	v := vm.New(baselines.NewSerial(16<<20), 4)
	defer v.Shutdown()
	m := v.RegisterMutator(2)
	defer m.Deregister()

	var recovered any
	m.Blocked(func() {
		func() {
			defer func() { recovered = recover() }()
			v.StopTheWorld("test", func() { panic("pause boom") })
		}()
	})
	if recovered != "pause boom" {
		t.Fatalf("recovered %v", recovered)
	}
	// The world must be running again: a safepoint must not park.
	done := make(chan struct{})
	go func() {
		m.Safepoint()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("world left stopped after a pause panic")
	}
}
