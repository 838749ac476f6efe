package core_test

import (
	"testing"

	"lxr/internal/core"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// newVM builds a small-heap LXR VM for tests.
func newVM(t *testing.T, cfg core.Config) *vm.VM {
	t.Helper()
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 8 << 20
	}
	if cfg.GCThreads == 0 {
		cfg.GCThreads = 2
	}
	v := vm.New(core.New(cfg), 16)
	t.Cleanup(v.Shutdown)
	return v
}

// buildList creates a singly linked list of n nodes; node payload word 0
// holds its position. Returns the head. Uses root slot 0 as scratch.
func buildList(m *vm.Mutator, n int) obj.Ref {
	m.Roots[0] = 0
	for i := n - 1; i >= 0; i-- {
		node := m.Alloc(1, 1, 8) // safepoint: may evacuate the current head
		m.WritePayload(node, 0, uint64(i))
		// Mutator discipline: reload the head from the root slot after
		// the allocation safepoint — a pause there may have moved it,
		// and only root slots are redirected. A raw local held across
		// the Alloc would store the stale pre-evacuation address.
		if head := m.Roots[0]; !head.IsNil() {
			m.Store(node, 0, head)
		}
		m.Roots[0] = node
	}
	return m.Roots[0]
}

// checkList verifies a list built by buildList.
func checkList(t *testing.T, m *vm.Mutator, head obj.Ref, n int) {
	t.Helper()
	cur := head
	for i := 0; i < n; i++ {
		if cur.IsNil() {
			t.Fatalf("list truncated at %d/%d", i, n)
		}
		if got := m.ReadPayload(cur, 0); got != uint64(i) {
			t.Fatalf("node %d: payload %d", i, got)
		}
		cur = m.Load(cur, 0)
	}
	if !cur.IsNil() {
		t.Fatalf("list longer than %d", n)
	}
}

func TestSurvivorsIntactAcrossEpochs(t *testing.T) {
	v := newVM(t, core.Config{})
	m := v.RegisterMutator(8)
	defer m.Deregister()

	head := buildList(m, 2000)
	m.Roots[1] = head
	// Churn garbage to force several RC epochs.
	for i := 0; i < 200000; i++ {
		g := m.Alloc(1, 1, 24)
		m.Roots[2] = g
	}
	m.Roots[2] = 0
	m.RequestGC()
	head = m.Roots[1] // may have been evacuated
	checkList(t, m, head, 2000)
	if got := v.Stats.Counter(core.CtrPauses); got < 2 {
		t.Fatalf("expected multiple RC pauses, got %d", got)
	}
}

func TestYoungBlocksReclaimedWithoutDecrements(t *testing.T) {
	v := newVM(t, core.Config{})
	m := v.RegisterMutator(4)
	defer m.Deregister()

	// Pure garbage: everything dies young.
	for i := 0; i < 300000; i++ {
		m.Roots[0] = m.Alloc(2, 2, 48)
	}
	m.Roots[0] = 0
	m.RequestGC()
	m.RequestGC()
	st := v.Stats
	if st.Counter(core.CtrYoungFreeBlk) == 0 {
		t.Fatal("young sweep yielded no clean blocks")
	}
	// Nearly everything should be reclaimed via the implicitly dead
	// path: survivors should be a tiny fraction of allocation.
	alloc := st.Counter(core.CtrAllocBytes)
	surv := st.Counter(core.CtrSurvivedBytes)
	if surv*10 > alloc {
		t.Fatalf("survival too high: %d of %d bytes", surv, alloc)
	}
}

func TestMatureReclamationViaDecrements(t *testing.T) {
	v := newVM(t, core.Config{})
	m := v.RegisterMutator(4)
	defer m.Deregister()

	// Build mature objects (survive one GC), then drop them and verify
	// RC mature reclamation kicks in. Keep the head's reference count
	// under the 2-bit stuck limit: at most two references at any pause.
	head := buildList(m, 5000)
	m.Roots[1] = head
	m.Roots[0] = 0
	m.RequestGC() // promotes the list
	// Hold the list in a heap object so dropping it generates logged
	// overwrites (root decrements alone would also work, but this
	// exercises the write barrier path).
	holder := m.Alloc(1, 1, 8)
	m.Store(holder, 0, m.Roots[1])
	m.Roots[2] = holder
	m.Roots[0], m.Roots[1] = 0, 0
	m.RequestGC()       // roots re-scanned; holder keeps list alive
	holder = m.Roots[2] // holder may have been evacuated: reload the "register"
	m.Store(holder, 0, 0)
	m.RequestGC() // dec enqueued for old head
	m.RequestGC() // lazy decs from previous epoch completed by now
	m.RequestGC()
	if got := v.Stats.Counter(core.CtrDeadOld); got < 4000 {
		t.Fatalf("mature RC reclaimed only %d objects", got)
	}
}

func TestCycleReclamationViaSATB(t *testing.T) {
	v := newVM(t, core.Config{}) // every pause below is explicit, so each votes for a trace
	m := v.RegisterMutator(4)
	defer m.Deregister()

	// Build a cycle, promote it, drop it: RC cannot reclaim it.
	a := m.Alloc(1, 1, 8)
	m.Roots[0] = a
	b := m.Alloc(1, 1, 8)
	m.Roots[1] = b
	m.Store(a, 0, b)
	m.Store(b, 0, a)
	m.RequestGC() // promote
	a, b = m.Roots[0], m.Roots[1]
	m.Roots[0], m.Roots[1] = 0, 0
	deadBefore := v.Stats.Counter(core.CtrDeadSATB)
	for i := 0; i < 24 && v.Stats.Counter(core.CtrDeadSATB) == deadBefore; i++ {
		// Mutator work between pauses gives the concurrent thread time
		// to advance the trace, as in a real execution.
		for j := 0; j < 20000; j++ {
			m.Roots[3] = m.Alloc(1, 1, 16)
		}
		m.Roots[3] = 0
		m.RequestGC()
	}
	if v.Stats.Counter(core.CtrDeadSATB) == deadBefore {
		t.Fatal("SATB never reclaimed the dead cycle")
	}
}

// fanIn stores val into `holders` fresh objects chained from root slot
// `root`, so one referent receives several increments at the next
// pause: the first promotes (and maybe copies) it, the rest meet the
// copy's forwarding word or, for an already counted referent, take the
// count-only path.
func fanIn(m *vm.Mutator, root int, valRoot int, holders int) {
	for i := 0; i < holders; i++ {
		h := m.Alloc(2, 2, 8)
		m.Store(h, 0, m.Roots[valRoot])
		if prev := m.Roots[root]; !prev.IsNil() {
			m.Store(h, 1, prev)
		}
		m.Roots[root] = h
	}
}

// TestYoungEvacuationAmongCountedTargets drives the increment drain's
// three target kinds on a heap with clean blocks to copy out of, which
// neither listed benchmark workload has: young objects on their first
// increment (evacuated), the same objects again through the forwarding
// word, and counted mature objects, whose increment never loads the
// header. CI runs it under LXR_VERIFY=1 -race, where the count-only
// path still loads the forwarding word and panics on a counted object
// that is forwarded.
func TestYoungEvacuationAmongCountedTargets(t *testing.T) {
	v := newVM(t, core.Config{HeapBytes: 32 << 20})
	m := v.RegisterMutator(8)
	defer m.Deregister()

	m.Roots[1] = buildList(m, 1500)
	m.RequestGC() // the list is mature from here on
	for round := 0; round < 12; round++ {
		// Mature fields take young referents: a table object that
		// survived the last pause is rewired to this round's objects.
		table := m.Alloc(3, 16, 8)
		m.Roots[3] = table
		for i := 0; i < 16; i++ {
			y := m.Alloc(1, 1, 24)
			m.WritePayload(y, 0, uint64(round*16+i))
			m.Roots[4] = y
			fanIn(m, 5, 4, 3) // young referent, four increments in all
			m.Store(m.Roots[3], i, m.Roots[4])
		}
		fanIn(m, 5, 1, 4) // counted referent: the list head
		for i := 0; i < 30000; i++ {
			m.Roots[2] = m.Alloc(1, 1, 32)
		}
		m.RequestGC()
		table = m.Roots[3]
		for i := 0; i < 16; i++ {
			if got := m.ReadPayload(m.Load(table, i), 0); got != uint64(round*16+i) {
				t.Fatalf("round %d: table slot %d reads %d", round, i, got)
			}
		}
		m.Roots[5] = 0
	}
	checkList(t, m, m.Roots[1], 1500)
	st := v.Stats
	if st.Counter(core.CtrYoungEvacBytes) == 0 {
		t.Fatal("no young object was evacuated")
	}
	if st.Counter(core.CtrStuck) == 0 {
		t.Fatal("no count stuck: the fan-in never reached a counted object three times")
	}
	if got := st.Counter(core.CtrDefensiveSkip); got != 0 {
		t.Fatalf("%d defensive skips", got)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, cfg := range []core.Config{
		{NoConcurrentSATB: true},
		{NoLazyDecrements: true},
		{NoConcurrentSATB: true, NoLazyDecrements: true},
	} {
		cfg := cfg
		v := newVM(t, cfg)
		m := v.RegisterMutator(4)
		head := buildList(m, 1000)
		m.Roots[1] = head
		for i := 0; i < 100000; i++ {
			m.Roots[2] = m.Alloc(1, 1, 16)
		}
		m.RequestGC()
		checkList(t, m, m.Roots[1], 1000)
		m.Deregister()
		v.Shutdown()
	}
}

func TestLargeObjects(t *testing.T) {
	v := newVM(t, core.Config{})
	m := v.RegisterMutator(4)
	defer m.Deregister()

	big := m.Alloc(1, 2, 40<<10) // > 16 KB: large object space
	m.WritePayload(big, 0, 0xdeadbeef)
	m.Roots[0] = big
	small := m.Alloc(0, 0, 8)
	m.Store(big, 0, small)
	m.Roots[1] = 0
	m.RequestGC()
	big = m.Roots[0]
	if m.ReadPayload(big, 0) != 0xdeadbeef {
		t.Fatal("large object payload corrupted")
	}
	if m.Load(big, 0).IsNil() {
		t.Fatal("large object's referent lost")
	}
	// Drop it; large young garbage and mature large objects must both
	// be reclaimed eventually.
	losBefore := core.New // placeholder to keep imports tidy
	_ = losBefore
	m.Roots[0] = 0
	for i := 0; i < 4; i++ {
		m.RequestGC()
	}
	for i := 0; i < 50; i++ { // large garbage allocated and dropped
		m.Roots[2] = m.Alloc(0, 0, 20<<10)
	}
	m.Roots[2] = 0
	m.RequestGC()
	m.RequestGC()
}

func TestMultiMutatorChurn(t *testing.T) {
	v := newVM(t, core.Config{HeapBytes: 16 << 20, GCThreads: 4})
	const workers = 4
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			m := v.RegisterMutator(8)
			defer m.Deregister()
			head := buildList(m, 500)
			m.Roots[1] = head
			for i := 0; i < 150000; i++ {
				g := m.Alloc(2, 2, 32)
				m.Store(g, 0, m.Roots[1]) // point into the list
				m.Roots[2] = g
			}
			cur := m.Roots[1]
			for i := 0; i < 500; i++ {
				if cur.IsNil() {
					done <- errTruncated
					return
				}
				if got := m.ReadPayload(cur, 0); got != uint64(i) {
					t.Logf("node %d payload=%d: %s", i, got, core.DiagnoseRefForTest(v.Plan, cur, v.Stats))
					done <- errCorrupt
					return
				}
				cur = m.Load(cur, 0)
			}
			done <- nil
		}(w)
	}
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type strErr string

func (e strErr) Error() string { return string(e) }

const (
	errTruncated = strErr("list truncated")
	errCorrupt   = strErr("list corrupted")
)
