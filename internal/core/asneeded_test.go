package core

import (
	"testing"

	"lxr/internal/vm"
)

// TestTraceAsNeeded: an acyclic heap stops being traced — survivors
// replaced round-robin in seven tables, one allocation in ten surviving,
// every pause started by the pacer's trigger or by allocation failure —
// and a heap that then starts dropping promoted cycles, with the yield
// rate decayed to nothing, is saved by the allocation ladder: the
// emergency pause starts and finishes a whole trace, and from then on
// the ordinary vote keeps up. CI also runs it under LXR_VERIFY=1 -race.
func TestTraceAsNeeded(t *testing.T) {
	const tables, slots = 7, 125
	p := New(Config{HeapBytes: 1 << 20, GCThreads: 2})
	v := vm.New(p, 4)
	defer v.Shutdown()
	m := v.RegisterMutator(8)
	defer m.Deregister()
	for r := 1; r <= tables; r++ {
		m.Roots[r] = m.Alloc(0, slots, 0)
	}
	// A pause that started a trace and ended with none active ran the
	// whole of it.
	st := v.Stats
	var started, deadBefore, wholeTraces, deadInWhole int64
	testPauseHook = func(p *LXR) {
		s, dead := st.Counter(CtrPausesSATB), st.Counter(CtrDeadSATB)
		if s > started && !p.satbActive.Load() {
			wholeTraces++
			deadInWhole += dead - deadBefore
		}
		started, deadBefore = s, dead
	}
	defer func() { testPauseHook = nil }()

	for i := 0; st.Counter(CtrPauses) < 200; i++ {
		s := m.Alloc(1, 1, 64)
		m.WritePayload(s, 0, uint64(i))
		m.Roots[0] = s
		m.Store(m.Roots[1+i/slots%tables], i%slots, m.Roots[0])
		for g := 0; g < 9; g++ {
			m.Roots[0] = m.Alloc(1, 1, 64)
		}
	}
	pauses, satb := st.Counter(CtrPauses), st.Counter(CtrPausesSATB)
	if satb*4 >= pauses || st.Counter(CtrDeadSATB) != 0 || wholeTraces != 0 {
		t.Fatalf("acyclic steady state: %d of %d pauses started a trace (%d whole ones), %d objects died by trace",
			satb, pauses, wholeTraces, st.Counter(CtrDeadSATB))
	}

	// Two-object cycles, promoted in the tables and dropped a lap later:
	// about an eighth of a megabyte of floating garbage per epoch in a 1 MB heap.
	for j := 0; st.Counter(CtrPauses) < pauses+60; j++ {
		m.Roots[0] = m.Alloc(2, 1, 64)
		b := m.Alloc(2, 1, 64)
		m.Store(b, 0, m.Roots[0])
		m.Store(m.Roots[0], 0, b)
		m.Store(m.Roots[1+j/slots%tables], j%slots, m.Roots[0])
	}
	if wholeTraces == 0 || deadInWhole == 0 {
		t.Fatalf("no emergency pause traced the heap: %d whole-trace pauses freed %d objects", wholeTraces, deadInWhole)
	}
	if wholeTraces > 3 {
		t.Fatalf("%d emergency traces in 60 epochs: the vote did not take over", wholeTraces)
	}
	if n := st.Counter(CtrDefensiveSkip); n != 0 {
		t.Fatalf("%d defensive skips", n)
	}
}
