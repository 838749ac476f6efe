package core

import (
	"sync/atomic"
	"testing"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// TestEnsureEvacuatedZeroesSourceCountBeforeForwarding pins the order
// the increment drain's count-only fast path stands on: when a mature
// object's forwarding word is published its count is already zero, so a
// counted object is never a forwarded one. With the in-line checks on,
// ensureEvacuated panics if the two steps are ever swapped.
func TestEnsureEvacuatedZeroesSourceCountBeforeForwarding(t *testing.T) {
	// The LXR_VERIFY in-line checks, whatever the environment says.
	defer func(old bool) { verifyEnabled = old }(verifyEnabled)
	verifyEnabled = true

	p := New(Config{HeapBytes: 4 << 20, GCThreads: 1, EnableMatureEvac: true})
	defer p.pool.Stop()
	newAlloc := func() *immix.Allocator {
		return &immix.Allocator{BT: p.bt, Lines: p.rc, OnSpan: p.onSpan}
	}
	// A mature object of three and a half lines, so that it owns
	// straddle markers, with a neighbour behind it whose log states
	// share a word with its own.
	const refs = 5
	size := obj.SizeFor(refs, 3*mem.LineSize+mem.LineSize/2)
	al := newAlloc()
	src, ok := al.Alloc(size)
	if !ok {
		t.Fatal("no room for the source object")
	}
	p.om.WriteHeader(src, obj.Layout{NumRefs: refs, Size: size})
	p.rc.Set(src, 2)
	p.markStraddleLines(src, size)
	al.Flush()

	w := &gcwork.Worker{Scratch: newAlloc()}
	var copied atomic.Int64
	dst, moved, live := p.ensureEvacuated(w, &copied, src)
	if !moved || !live || dst == src {
		t.Fatalf("ensureEvacuated = (%x, moved=%v, live=%v), want a copy", uint64(dst), moved, live)
	}
	if got := p.rc.Get(src); got != 0 {
		t.Fatalf("forwarded source keeps count %d", got)
	}
	if !p.om.IsForwarded(src) || p.om.ForwardingPointer(src) != dst {
		t.Fatalf("source forwarding word %#x does not point at the copy %x", p.om.ForwardingWord(src), uint64(dst))
	}
	if got := p.rc.Get(dst); got != 2 {
		t.Fatalf("copy's count = %d, want the source's 2", got)
	}
	for l := src.Line() + 1; l < (src + mem.Address(size) - 1).Line(); l++ {
		if !p.rc.LineFree(l) || p.straddle.Get(mem.LineStart(l)) {
			t.Fatalf("source line %d keeps its straddle marker", l)
		}
	}
	for i := 0; i < refs; i++ {
		if got := p.logs.Get(p.om.SlotAddr(dst, i)); got != meta.LogUnlogged {
			t.Fatalf("copy's slot %d has log state %d, want Unlogged", i, got)
		}
	}
	if got := p.logs.Get(p.om.SlotAddr(dst, refs)); got != meta.LogLogged {
		t.Fatalf("the field after the copy's last slot has log state %d, want it untouched", got)
	}
	// The second arrival follows the forwarding word.
	if again, moved, live := p.ensureEvacuated(w, &copied, src); again != dst || !moved || !live {
		t.Fatalf("second ensureEvacuated = (%x, %v, %v), want the same copy", uint64(again), moved, live)
	}
	if copied.Load() != 1 {
		t.Fatalf("copied %d objects, want 1", copied.Load())
	}
}

// TestResolveSeesQuarantinedEvacuationSources: the pause after a mature
// evacuation owes decrements to last epoch's root referents at their
// pre-evacuation addresses (the root decrements are gathered before the
// evacuation moves the objects). That pause copies nothing young, so
// only the quarantine tells it that forwarding words are live; it must
// rewrite the batch before releaseReclaimable lifts the quarantine, or
// the decrements chase forwarding words in blocks that are free to be
// zeroed and reused.
func TestResolveSeesQuarantinedEvacuationSources(t *testing.T) {
	p := New(Config{
		HeapBytes:        8 << 20,
		GCThreads:        2,
		EnableMatureEvac: true, // the pauses below are explicit: an SATB cycle (and so an evacuation) at every opportunity
	})
	v := vm.New(p, 4)
	defer v.Shutdown()
	m := v.RegisterMutator(8)
	defer m.Deregister()

	var (
		evacuated   int64        // CtrMatureEvacObjs at the previous pause end
		stale       []obj.Ref    // root decrements left pointing at evacuated sources
		quietPauses int          // pauses that copied nothing young while sources were quarantined
		rewritten   int          // stale root decrements such a pause submitted at their new address
		problems    atomic.Int64 // t.Errorf is called from the pausing goroutine
	)
	testPauseHook = func(p *LXR) {
		// World stopped, driver quiescent: the batch this pause submitted.
		batch := map[obj.Ref]bool{}
		for _, a := range p.conc.pendingDecs {
			batch[a] = true
			if p.plausibleRef(a) && p.om.IsForwarded(a) && !p.bt.HasFlag(a.Block(), immix.FlagEvacuating) {
				problems.Add(1)
				t.Errorf("epoch %d: decrement for %x submitted unresolved, and its source block %d is out of quarantine",
					p.epoch.Load(), uint64(a), a.Block())
			}
		}
		if len(stale) > 0 && p.copiedY.Load() == 0 {
			quietPauses++
			for _, a := range stale {
				if batch[p.om.ForwardingPointer(a)] {
					rewritten++
				}
			}
		}
		stale = stale[:0]
		if n := p.vm.Stats.Counter(CtrMatureEvacObjs); n != evacuated {
			evacuated = n
			for _, a := range p.rootDecs {
				if p.om.IsForwarded(a) {
					stale = append(stale, a)
				}
			}
		}
	}
	defer func() { testPauseHook = nil }()

	// A mature list of 64-byte nodes: every line of its blocks stays
	// live, so the blocks stay full and are evacuation candidates. Six
	// roots point into it.
	const nodes = 4000
	for i := nodes - 1; i >= 0; i-- {
		n := m.Alloc(1, 1, 40)
		m.WritePayload(n, 0, uint64(i))
		if head := m.Roots[0]; !head.IsNil() {
			m.Store(n, 0, head)
		}
		m.Roots[0] = n
		if i%(nodes/5) == 0 {
			m.Roots[1+i/(nodes/5)] = n
		}
	}
	for round := 0; round < 200 && rewritten == 0 && problems.Load() == 0; round++ {
		// Mutator time lets the concurrent trace finish; the pause that
		// finds it idle evacuates.
		for i := 0; i < 4000; i++ {
			m.Roots[7] = m.Alloc(1, 1, 16)
		}
		m.Roots[7] = 0
		m.RequestGC()
		if len(stale) > 0 {
			m.RequestGC() // nothing allocated since: this pause copies nothing young
		}
	}
	if problems.Load() != 0 {
		return
	}
	if evacuated == 0 {
		t.Fatal("no mature evacuation ran")
	}
	if quietPauses == 0 || rewritten == 0 {
		t.Fatalf("the hazard was not reached: %d quiet pauses after an evacuation, %d stale root decrements rewritten",
			quietPauses, rewritten)
	}
	cur := m.Roots[0]
	for i := 0; i < nodes; i++ {
		if cur.IsNil() || m.ReadPayload(cur, 0) != uint64(i) {
			t.Fatalf("list broken at node %d (%x)", i, uint64(cur))
		}
		cur = m.Load(cur, 0)
	}
}
