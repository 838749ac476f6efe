package vm_test

import (
	"fmt"
	"testing"
	"time"

	"lxr/internal/baselines"
	"lxr/internal/vm"
)

// BenchmarkCounterAdd compares a by-name Add against a pre-resolved
// handle's Add under parallel writers — the profile of pause workers all
// bumping lxr.decrements, which the LXR hot paths do through handles.
func BenchmarkCounterAdd(b *testing.B) {
	b.Run("name", func(b *testing.B) {
		s := vm.NewStats()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Add("ctr", 1)
			}
		})
	})
	b.Run("handle", func(b *testing.B) {
		h := vm.NewStats().Handle("ctr")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Add(1)
			}
		})
	})
}

// ExampleStats_Add: a by-name Add and a handle's Add land on one counter.
func ExampleStats_Add() {
	s := vm.NewStats()
	s.Add("lxr.decrements", 2)
	s.Handle("lxr.decrements").Add(3)
	fmt.Println(s.Counter("lxr.decrements"), s.Counters()["lxr.decrements"])
	// Output: 5 5
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
