package trace

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// span records a deterministic span s at offset off from the epoch.
func span(t *Tracer, shard int, name NameID, off, dur time.Duration, arg uint64) {
	t.Span(shard, name, t.Epoch().Add(off), dur, arg, 0)
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Span(ShardGC, NameFlush, time.Now(), time.Millisecond, 1, 2)
	tr.Phase(NameDecs, time.Now())
	tr.PhaseArg(NameSweep, time.Now(), 7)
	tr.Instant(ShardPolicy, NameBarrierSlow, 1, 2)
	if got := tr.Intern("pause:rc"); got != nameNone {
		t.Errorf("nil Intern = %d, want %d", got, nameNone)
	}
	tr.Trigger(tr.TriggerName("ihop"), 1, 2)
	if tr.Drain() != nil {
		t.Error("nil Drain should return nil")
	}
	if tr.Flight() {
		t.Error("nil Flight should be false")
	}
}

func TestShardCapRoundsToPowerOfTwo(t *testing.T) {
	tr := New(Config{ShardCap: 100})
	if got := len(tr.shards[0].slot); got != 128 {
		t.Errorf("ShardCap 100 -> ring size %d, want 128", got)
	}
	tr = New(Config{})
	if got := len(tr.shards[0].slot); got != DefaultShardCap {
		t.Errorf("default ring size %d, want %d", got, DefaultShardCap)
	}
}

// TestRingWraparound checks the overwrite-oldest contract: after W > cap
// single-threaded writes, the ring retains exactly the last cap events in
// record order and reports loss of exactly W - cap.
func TestRingWraparound(t *testing.T) {
	const cap = 16
	for _, writes := range []int{0, 1, cap - 1, cap, cap + 1, 3 * cap, 10*cap + 5} {
		tr := New(Config{ShardCap: cap, Flight: true})
		for i := 0; i < writes; i++ {
			span(tr, ShardGC, NameFlush, time.Duration(i)*time.Microsecond, time.Microsecond, uint64(i))
		}
		d := tr.Drain()[ShardGC]

		wantLost := 0
		if writes > cap {
			wantLost = writes - cap
		}
		if int(d.Lost) != wantLost {
			t.Errorf("writes=%d: lost=%d, want %d", writes, d.Lost, wantLost)
		}
		wantKept := writes - wantLost
		if len(d.Events) != wantKept {
			t.Fatalf("writes=%d: kept %d events, want %d", writes, len(d.Events), wantKept)
		}
		for i, ev := range d.Events {
			if want := uint64(wantLost + i); ev.Arg != want {
				t.Fatalf("writes=%d: event %d has arg %d, want %d (oldest surviving = first lost+1)",
					writes, i, ev.Arg, want)
			}
		}
		if !tr.Flight() {
			t.Error("Flight() lost the flight flag")
		}
	}
}

// TestDrainIsRepeatable checks that Drain is a snapshot, not a consume:
// two quiescent drains see the same events.
func TestDrainIsRepeatable(t *testing.T) {
	tr := New(Config{ShardCap: 8})
	for i := 0; i < 20; i++ {
		span(tr, ShardConc, NameQuantum, time.Duration(i)*time.Microsecond, time.Microsecond, uint64(i))
	}
	a := tr.Drain()[ShardConc]
	b := tr.Drain()[ShardConc]
	if a.Lost != b.Lost || len(a.Events) != len(b.Events) {
		t.Fatalf("drains disagree: lost %d/%d, events %d/%d", a.Lost, b.Lost, len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across drains", i)
		}
	}
}

// TestConcurrentRecordPerShardOrder is the concurrent-record property
// test: R goroutines each own one shard and write a per-writer sequence
// number. After quiescence every shard must retain its trailing window in
// order with loss exactly writes - capacity, regardless of cross-shard
// interleaving. Run under -race this also proves the record path clean
// against itself.
func TestConcurrentRecordPerShardOrder(t *testing.T) {
	const (
		cap    = 64
		writes = 50 * cap
	)
	tr := New(Config{ShardCap: cap})
	var wg sync.WaitGroup
	for s := 0; s < NumShards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				tr.Instant(shard, NameAllocPublish, uint64(i), uint64(shard))
			}
		}(s)
	}
	wg.Wait()

	for _, d := range tr.Drain() {
		if int(d.Lost) != writes-cap {
			t.Errorf("shard %d: lost=%d, want %d", d.Shard, d.Lost, writes-cap)
		}
		if len(d.Events) != cap {
			t.Fatalf("shard %d: kept %d events, want %d", d.Shard, len(d.Events), cap)
		}
		for i, ev := range d.Events {
			if want := uint64(writes - cap + i); ev.Arg != want {
				t.Fatalf("shard %d: event %d has seq %d, want %d (per-shard order broken)",
					d.Shard, i, ev.Arg, want)
			}
			if ev.Arg2 != uint64(d.Shard) {
				t.Fatalf("shard %d: event %d carries shard tag %d (cross-shard bleed)", d.Shard, i, ev.Arg2)
			}
		}
	}
}

// TestConcurrentSharedShard hammers one shard from many writers and
// drains concurrently. The mid-flight drains only need to not crash, not
// tear, and stay in ticket order; the final quiescent drain must account
// exactly.
func TestConcurrentSharedShard(t *testing.T) {
	const (
		cap     = 32
		writers = 8
		each    = 20 * cap
	)
	tr := New(Config{ShardCap: cap})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: torn slots must be dropped, not returned
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := tr.Drain()[ShardGC]
			if len(d.Events) > cap {
				t.Errorf("mid-flight drain returned %d events, cap %d", len(d.Events), cap)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Instant(ShardGC, NameBarrierSlow, uint64(i), 0)
			}
		}()
	}
	// The reader only exits on stop; release it once every writer's
	// ticket has been claimed, then wait for full quiescence before the
	// exact-accounting drain.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		h := tr.shards[ShardGC].head.Load()
		if h == uint64(writers*each) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	d := tr.Drain()[ShardGC]
	total := writers * each
	if int(d.Lost) != total-cap {
		t.Errorf("lost=%d, want %d", d.Lost, total-cap)
	}
	if len(d.Events) != cap {
		t.Errorf("kept %d events, want %d", len(d.Events), cap)
	}
}

// TestInternStableAndConcurrent checks interning: builtins resolve to
// their fixed IDs, refined names are stable across calls, and concurrent
// first-sight interning of the same name converges on one ID.
func TestInternStableAndConcurrent(t *testing.T) {
	tr := New(Config{ShardCap: 8})
	if got := tr.Intern("rendezvous"); got != NameRendezvous {
		t.Errorf("Intern(rendezvous) = %d, want builtin %d", got, NameRendezvous)
	}
	id := tr.Intern("pause:rc+mark")
	if id < numBuiltin {
		t.Errorf("refined name landed on builtin ID %d", id)
	}
	if again := tr.Intern("pause:rc+mark"); again != id {
		t.Errorf("re-Intern gave %d, want %d", again, id)
	}
	if got := tr.nameOf(id); got != "pause:rc+mark" {
		t.Errorf("nameOf(%d) = %q", id, got)
	}

	const workers = 8
	ids := make([]NameID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ids[w] = tr.Intern(fmt.Sprintf("trigger:kind-%d", i%4))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ids[w] != ids[0] {
			t.Fatalf("concurrent Intern diverged: %d vs %d", ids[w], ids[0])
		}
	}
}

// TestTrigger checks the policy-shard trigger instants carry the
// refined kind name and both float payloads, and that firing one —
// which happens on mutator safepoint paths and under the conctrl
// controller lock — allocates nothing.
func TestTrigger(t *testing.T) {
	tr := New(Config{ShardCap: 8})
	id := tr.TriggerName("ihop")
	tr.Trigger(id, 0.61, 0.45)
	d := tr.Drain()[ShardPolicy]
	if len(d.Events) != 1 {
		t.Fatalf("policy shard has %d events, want 1", len(d.Events))
	}
	ev := d.Events[0]
	if got := tr.nameOf(ev.Name); got != "trigger:ihop" {
		t.Errorf("trigger name %q, want trigger:ihop", got)
	}
	if ev.Kind != KindInstant {
		t.Errorf("trigger kind %d, want instant", ev.Kind)
	}
	if s, thr := math.Float64frombits(ev.Arg), math.Float64frombits(ev.Arg2); s != 0.61 || thr != 0.45 {
		t.Errorf("payload signal %v threshold %v, want 0.61 0.45", s, thr)
	}
	if tr.TriggerName("ihop") != id {
		t.Error("TriggerName is not stable")
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Trigger(id, 0.61, 0.45) }); n != 0 {
		t.Errorf("Trigger allocates %v times per call, want 0", n)
	}
}

func TestMutShardLanes(t *testing.T) {
	for id := uint64(0); id < 3*MutShards; id++ {
		s := MutShard(id)
		if s < 3 || s >= NumShards {
			t.Fatalf("MutShard(%d) = %d, outside mutator lanes [3,%d)", id, s, NumShards)
		}
		if s != MutShard(id+MutShards) {
			t.Fatalf("MutShard not periodic at id %d", id)
		}
	}
}
