package core

import (
	"math/rand"
	"testing"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/vm"
)

// heldPause runs one pause on m's behalf without collectRC's quiesce and
// release around it, so a driver the test holds stays held across it.
func heldPause(p *LXR, m *vm.Mutator, cause string) {
	m.Blocked(func() {
		p.vm.StopTheWorldTagged("rc", func() string { return p.pausePipeline(cause) })
	})
}

// runDriver runs the held driver's quanta on the test goroutine until
// it has no work.
func runDriver(p *LXR) {
	for p.conc.HasWork() {
		p.conc.Quantum()
	}
}

// TestLazySweepFinishesBeforeIncrements: a trace completes while the
// driver is held, so its whole reclamation sweep is left to the next
// pause. In the epoch between, a mutator recycles the block of a dead
// mature object the trace left unmarked and fills it with young objects
// a root reaches; retired at the pause, the block is Full and Dirty. The
// pause must finish the sweep before its increments (a sweep after them
// takes the promoted, unmarked young objects for dead) and must not
// release the block before the young sweep (its young objects are not
// counted yet, so the block reads empty once the dead object goes, and
// the allocation after the pause would zero the list).
func TestLazySweepFinishesBeforeIncrements(t *testing.T) {
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	m := v.RegisterMutator(2)
	defer m.Deregister()
	p.conc.quiesce() // from here the driver runs only in runDriver
	defer p.conc.release()

	// A self-loop keeps its count once its root is gone. Its first
	// pause copies it into a block of its own, which the young sweep
	// recycles; the first cycle vote starts a trace that marks it.
	dead := m.Alloc(1, 1, 8)
	m.Store(dead, 0, dead)
	m.Roots[0] = dead
	heldPause(p, m, pauseCauseTrigger)
	dead = m.Roots[0]
	blk := dead.Block()
	if !p.satbActive.Load() || p.bt.State(blk) != immix.StateRecycled {
		t.Fatalf("premise: trace active %v, block %d state %d (want a trace and a recycled block)",
			p.satbActive.Load(), blk, p.bt.State(blk))
	}
	m.Roots[0] = 0
	runDriver(p)
	heldPause(p, m, pauseCauseTrigger) // completes the first trace
	runDriver(p)                       // the root decrement leaves the self-loop's count; the sweep keeps it
	heldPause(p, m, pauseCauseExplicit)
	if !p.satbActive.Load() {
		t.Fatal("premise: the explicit pause started no trace")
	}
	runDriver(p)
	heldPause(p, m, pauseCauseTrigger) // completes the second trace, which never reached the self-loop
	if p.satbActive.Load() || !p.conc.sweepLeft() || p.rc.Get(dead) == 0 || p.marks.Get(dead) {
		t.Fatalf("premise: trace active %v, sweep left %v, dead object rc %d mark %v",
			p.satbActive.Load(), p.conc.sweepLeft(), p.rc.Get(dead), p.marks.Get(dead))
	}

	const n = 64
	for i := 0; i < n; i++ {
		y := m.Alloc(1, 1, 8)
		m.WritePayload(y, 0, uint64(i))
		if prev := m.Roots[1]; !prev.IsNil() {
			m.Store(y, 0, prev)
		}
		m.Roots[1] = y
	}
	if b := m.Roots[1].Block(); b != blk {
		t.Fatalf("premise: the young objects went to block %d, not the recycled block %d", b, blk)
	}
	lazy := v.Stats.Counter(CtrPausesLazy)
	heldPause(p, m, pauseCauseTrigger)

	if got := v.Stats.Counter(CtrPausesLazy) - lazy; got != 1 {
		t.Errorf("the pause that finished the sweep counted %d lazy pauses, want 1", got)
	}
	if p.rc.Get(dead) != 0 {
		t.Errorf("the dead object still has count %d", p.rc.Get(dead))
	}
	if got := v.Stats.Counter(CtrPauses); got != 5 {
		t.Errorf("%d pauses ran, want the test's 5", got)
	}
	// Garbage over a few blocks' worth of lines: a block wrongly
	// released is handed out again and zeroed under the list.
	for i := 0; i < 4*mem.BlockSize/64; i++ {
		m.Alloc(1, 0, 48)
	}
	y := m.Roots[1]
	for i := n - 1; i >= 0; i-- {
		if y.IsNil() {
			t.Fatalf("list ends at %d", i)
		}
		if c := p.rc.Get(y); c == 0 {
			t.Errorf("young object %d at %#x reachable from a root has count 0", i, uint64(y))
		}
		if got := m.ReadPayload(y, 0); got != uint64(i) {
			t.Errorf("young object %d payload %d", i, got)
		}
		if st := p.bt.State(y.Block()); st == immix.StateFree {
			t.Errorf("young object %d sits in block %d, which was released free", i, y.Block())
		}
		y = m.Load(y, 0)
	}
}

// TestLazySweepMatchesInPauseSweep fills randomized blocks into two
// heaps and sweeps them two ways: the driver's quanta for a varying
// share of the blocks, then the pause that finishes the rest and
// releases what the driver queued; and the whole sweep in one pause.
// Both must leave bit-identical RC and straddle tables and block
// states, count the same dead and skipped, and report the same freed
// bytes.
func TestLazySweepMatchesInPauseSweep(t *testing.T) {
	heap := func() *LXR {
		p := New(Config{HeapBytes: 4 << 20, GCThreads: 2})
		t.Cleanup(vm.New(p, 0).Shutdown)
		p.conc.quiesce()
		t.Cleanup(p.conc.release)
		return p
	}
	var deadTotal int64
	for trial := 0; trial < 24; trial++ {
		f := sweepFills[trial%len(sweepFills)]
		lazy, now := heap(), heap()
		blocks := lazy.bt.Blocks()
		for _, p := range []*LXR{lazy, now} {
			for idx := 1 + trial%7; idx <= blocks; idx += 7 {
				fillBlock(p, idx, rand.New(rand.NewSource(int64(trial*blocks+idx))), f)
				st := immix.StateFull
				if idx%3 == 0 {
					st = immix.StateRecycled
				}
				p.bt.SetState(idx, st)
			}
			p.completeSATB(false)
		}
		for q := 0; q < trial%(blocks/sweepChunk+2); q++ {
			lazy.conc.Quantum()
		}
		freed := lazy.finishSweep()
		lazy.conc.releaseReclaimable()
		wantFreed := now.finishSweep()

		for _, ctr := range []string{CtrDeadSATB, CtrDefensiveSkip} {
			if g, w := lazy.vm.Stats.Counter(ctr), now.vm.Stats.Counter(ctr); g != w {
				t.Fatalf("trial %d (%+v): %s %d, in-pause %d", trial, f, ctr, g, w)
			}
		}
		if freed != wantFreed {
			t.Fatalf("trial %d (%+v): freed %d bytes, in-pause %d", trial, f, freed, wantFreed)
		}
		for l := 0; l < (blocks+1)*mem.LinesPerBlock; l++ {
			if g, w := lazy.rc.LineWord(l), now.rc.LineWord(l); g != w {
				t.Fatalf("trial %d (%+v): RC word of line %d (block %d) = %#08x, in-pause %#08x",
					trial, f, l, l/mem.LinesPerBlock, g, w)
			}
		}
		for i := 0; i < lazy.straddle.Words(); i++ {
			if g, w := lazy.straddle.Word(i), now.straddle.Word(i); g != w {
				t.Fatalf("trial %d (%+v): straddle word %d = %#08x, in-pause %#08x", trial, f, i, g, w)
			}
		}
		for idx := 1; idx <= blocks; idx++ {
			if g, w := lazy.bt.State(idx), now.bt.State(idx); g != w {
				t.Fatalf("trial %d (%+v): block %d state %d, in-pause %d", trial, f, idx, g, w)
			}
		}
		deadTotal += now.vm.Stats.Counter(CtrDeadSATB)
	}
	if deadTotal == 0 {
		t.Fatal("the trials reclaimed nothing")
	}
}
