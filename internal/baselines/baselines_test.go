package baselines_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lxr/internal/baselines"
	"lxr/internal/core"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// plans returns every collector under test at the given heap size.
func plans(heap int) map[string]func() vm.Plan {
	return map[string]func() vm.Plan{
		"LXR":        func() vm.Plan { return core.New(core.Config{HeapBytes: heap, GCThreads: 2}) },
		"SemiSpace":  func() vm.Plan { return baselines.NewSemiSpace("SS", heap, 2) },
		"Serial":     func() vm.Plan { return baselines.NewSerial(heap) },
		"Parallel":   func() vm.Plan { return baselines.NewParallel(heap, 2) },
		"Immix":      func() vm.Plan { return baselines.NewImmix(heap, 2, false) },
		"Immix+WB":   func() vm.Plan { return baselines.NewImmix(heap, 2, true) },
		"G1":         func() vm.Plan { return baselines.NewG1(heap, 2) },
		"Shenandoah": func() vm.Plan { return baselines.NewShenandoah(heap, 2) },
		"ZGC": func() vm.Plan {
			if p := baselines.NewZGC(heap, 2); p != nil {
				return p
			}
			return nil
		},
	}
}

// exercise churns a heap with a long-lived list, short-lived garbage,
// pointer mutations and large objects, verifying the survivors after.
func exercise(t *testing.T, v *vm.VM, iters int) {
	t.Helper()
	m := v.RegisterMutator(8)
	defer m.Deregister()

	// The list head lives in Roots[0] and every link store reads it back
	// from there: Alloc is a safepoint, and a collection there may move
	// the head — only root slots are updated by the collector (the
	// mutator discipline of lxr.go). A raw local held across the Alloc
	// would dangle once the collector reuses the evacuated-from space.
	const listLen = 800
	for i := listLen - 1; i >= 0; i-- {
		n := m.Alloc(1, 1, 16)
		m.WritePayload(n, 0, uint64(i))
		if !m.Roots[0].IsNil() {
			m.Store(n, 0, m.Roots[0])
		}
		m.Roots[0] = n
	}
	m.Roots[1] = m.Roots[0]
	m.Roots[0] = 0

	// Churn: garbage, mutations into a small live window, large objects.
	window := make([]int, 0)
	_ = window
	for i := 0; i < iters; i++ {
		g := m.Alloc(2, 2, 40)
		m.Store(g, 0, m.Roots[1]) // point into the list
		m.Roots[2] = g
		if i%97 == 0 {
			m.Roots[3] = m.Alloc(0, 1, 20<<10) // large object
		}
		if i%31 == 0 {
			// Mutate a heap pointer: relink g.1 to previous garbage.
			m.Store(g, 1, m.Roots[2])
		}
		if i%4096 == 0 {
			m.Safepoint()
		}
	}
	m.Roots[2], m.Roots[3] = 0, 0
	m.RequestGC()
	m.RequestGC()

	cur := m.Roots[1]
	for i := 0; i < listLen; i++ {
		if cur.IsNil() {
			t.Fatalf("list truncated at %d", i)
		}
		if got := m.ReadPayload(cur, 0); got != uint64(i) {
			t.Fatalf("node %d corrupted: %d", i, got)
		}
		cur = m.Load(cur, 0)
	}
	if !cur.IsNil() {
		t.Fatal("list tail not nil")
	}
}

func TestAllCollectorsPreserveLiveData(t *testing.T) {
	for name, mk := range plans(48 << 20) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			p := mk()
			if p == nil {
				t.Skip("collector cannot run at this heap size")
			}
			v := vm.New(p, 8)
			defer v.Shutdown()
			exercise(t, v, 120000)
			if v.Stats.PauseCount() == 0 && name != "Shenandoah" && name != "ZGC" {
				t.Errorf("%s: no pauses recorded", name)
			}
		})
	}
}

func TestCollectorsMultiThreaded(t *testing.T) {
	for _, name := range []string{"LXR", "G1", "Shenandoah", "Parallel"} {
		mk := plans(64 << 20)[name]
		t.Run(name, func(t *testing.T) {
			p := mk()
			v := vm.New(p, 8)
			defer v.Shutdown()
			const workers = 3
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(id int) {
					defer func() {
						if r := recover(); r != nil {
							errs <- fmt.Errorf("worker %d: %v", id, r)
						}
					}()
					m := v.RegisterMutator(8)
					defer m.Deregister()
					// Reload the head from the root slot after each
					// allocation safepoint: moving plans may evacuate
					// it there, and only root slots are redirected.
					m.Roots[0] = 0
					for i := 299; i >= 0; i-- {
						n := m.Alloc(1, 1, 16)
						m.WritePayload(n, 0, uint64(i))
						if head := m.Roots[0]; !head.IsNil() {
							m.Store(n, 0, head)
						}
						m.Roots[0] = n
					}
					for i := 0; i < 80000; i++ {
						g := m.Alloc(1, 1, 48)
						m.Store(g, 0, m.Roots[0])
						m.Roots[1] = g
					}
					cur := m.Roots[0]
					for i := 0; i < 300; i++ {
						if cur.IsNil() {
							errs <- fmt.Errorf("worker %d: truncated at %d", id, i)
							return
						}
						if got := m.ReadPayload(cur, 0); got != uint64(i) {
							errs <- fmt.Errorf("worker %d: node %d = %d", id, i, got)
							return
						}
						cur = m.Load(cur, 0)
					}
					errs <- nil
				}(w)
			}
			for i := 0; i < workers; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestZGCMinHeap(t *testing.T) {
	if baselines.NewZGC(16<<20, 2) != nil {
		t.Fatal("ZGC should refuse a 16 MB heap")
	}
	if baselines.NewZGC(64<<20, 2) == nil {
		t.Fatal("ZGC should accept a 64 MB heap")
	}
}

func TestG1RunsMixedCollections(t *testing.T) {
	// Run with the mixed-collection evacuation audit armed: every mixed
	// pause proves — by walking the heap and the cset regions directly —
	// that remset-driven evacuation covered all incoming edges before
	// any region is freed.
	baselines.SetG1AuditForTest(true)
	defer baselines.SetG1AuditForTest(false)
	p := baselines.NewG1(32<<20, 2)
	v := vm.New(p, 8)
	defer v.Shutdown()
	m := v.RegisterMutator(8)
	defer m.Deregister()
	// Long-lived data to push occupancy over the marking threshold,
	// then churn so marking and mixed collections happen. The chain
	// head lives in a root slot (reloaded after every allocation
	// safepoint — G1 evacuates at young pauses). A long-lived large
	// object holding a chain reference exercises the LOS remset path
	// (large-object slots are covered only by the mark's edge records).
	large := m.Alloc(3, 4, 64<<10)
	m.Roots[1] = large
	for i := 0; i < 120000; i++ {
		n := m.Alloc(1, 1, 64)
		if head := m.Roots[0]; !head.IsNil() {
			m.Store(n, 0, head)
		}
		if i%3 != 0 {
			m.Roots[0] = n // two-thirds become garbage over time
		}
		if i%1000 == 999 {
			m.Roots[0] = m.Alloc(1, 1, 64) // drop the chain periodically
		}
		if i%4096 == 0 {
			m.Store(m.Roots[1], int(uint(i/4096))%4, m.Roots[0])
		}
	}
	m.RequestGC()
	if p.PausesYoung() == 0 {
		t.Fatal("G1 never ran a young collection")
	}
	// Drive the mark/mixed pipeline to completion: keep churning (so
	// old regions go sparse) and pausing until a mixed pause reclaims
	// the cset. Each round gives the concurrent mark time to drain
	// before the next pause can run the final mark.
	for round := 0; round < 200 && p.PausesMixed() == 0; round++ {
		for i := 0; i < 2000; i++ {
			n := m.Alloc(1, 1, 64)
			if head := m.Roots[0]; !head.IsNil() {
				m.Store(n, 0, head)
			}
			if i%3 != 0 {
				m.Roots[0] = n
			}
		}
		if round%8 == 7 {
			m.Roots[0] = m.Alloc(1, 1, 64) // drop the chain: old regions go sparse
		}
		m.RequestGC()
	}
	if p.PausesMixed() == 0 {
		t.Fatal("G1 never ran a mixed collection: the audit was not exercised")
	}
	if p.MixedAudits() == 0 {
		t.Fatal("mixed collections ran but the evacuation audit never fired")
	}
	t.Logf("mixed pauses %d, audited %d", p.PausesMixed(), p.MixedAudits())
}

// TestG1TightHeapEvacuationFailure drives G1 at near-full occupancy so
// young evacuation pauses exhaust the physical copy space. The
// collector must promote the affected objects in place (self-forwarded,
// region retired to the old generation) instead of panicking inside the
// pause — the seed crashed with heap corruption here — and every live
// object must stay intact. A clean mutator-path OOM ("out of memory")
// is an acceptable outcome at the tightest settings.
func TestG1TightHeapEvacuationFailure(t *testing.T) {
	for _, liveNodes := range []int{20000, 30000, 40000} {
		p := baselines.NewG1(2<<20, 2)
		v := vm.New(p, 8)
		oom := func() (oom bool) {
			defer func() {
				if r := recover(); r != nil {
					if s, ok := r.(string); ok && strings.Contains(s, "out of memory") {
						oom = true
						return
					}
					panic(r)
				}
			}()
			m := v.RegisterMutator(8)
			defer m.Deregister()
			for i := 0; i < liveNodes; i++ {
				n := m.Alloc(1, 1, 8)
				m.WritePayload(n, 0, uint64(i))
				if !m.Roots[0].IsNil() {
					m.Store(n, 0, m.Roots[0])
				}
				m.Roots[0] = n
			}
			for i := 0; i < 20000; i++ {
				g := m.Alloc(2, 2, 40)
				m.Store(g, 0, m.Roots[0])
				m.Roots[2] = g
			}
			// Walk the whole live list: promote-in-place must not have
			// split or corrupted any object.
			cur := m.Roots[0]
			for i := liveNodes - 1; i >= 0; i-- {
				if cur.IsNil() {
					t.Fatalf("liveNodes=%d: list truncated at %d", liveNodes, i)
				}
				if got := m.ReadPayload(cur, 0); got != uint64(i) {
					t.Fatalf("liveNodes=%d: node %d corrupted: %d", liveNodes, i, got)
				}
				cur = m.Load(cur, 0)
			}
			return false
		}()
		failures := p.EvacFailures()
		v.Shutdown()
		t.Logf("liveNodes=%d: %d in-place promotions, oom=%v", liveNodes, failures, oom)
	}
}

// TestShenPacedTriggerUnderChurn is the race cover for the pacing
// snapshot path: Shenandoah's cycle trigger (the free-fraction test)
// runs on the conctrl controller goroutine with the controller lock
// held, reading occupancy — including the large-object space's, which
// used to take the LOS mutex — and reporting to the tracer,
// concurrently with mutators allocating large objects. Every read on
// that path must be lock-free and race-clean, and the trigger must keep
// cycles firing.
func TestShenPacedTriggerUnderChurn(t *testing.T) {
	const heap = 12 << 20
	p := baselines.NewShenandoah(heap, 2)
	tr := trace.New(trace.Config{ShardCap: 256})
	p.SetTracer(tr)
	name := tr.TriggerName("free-fraction")
	fired := func() (n int) {
		for _, ev := range tr.Drain()[trace.ShardPolicy].Events {
			if ev.Name == name {
				n++
			}
		}
		return n
	}
	v := vm.New(p, 8)
	defer v.Shutdown()

	// Phase 1 (the race cover): mutators churn small and large objects
	// while the controller goroutine polls the free-fraction trigger —
	// every read on that path must be lock-free.
	var wg sync.WaitGroup
	for mt := 0; mt < 3; mt++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := v.RegisterMutator(8)
			defer m.Deregister()
			for i := 0; i < 4000; i++ {
				m.Roots[0] = m.Alloc(0, 2, 256)
				if i%64 == 0 {
					m.Roots[1] = m.Alloc(0, 0, 20<<10) // LOS churn
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2 (determinism): drive occupancy over the trigger and hold
	// it there across several of the controller's 2ms polls, so the
	// trigger provably fires regardless of scheduling. Garbage is only
	// reclaimed by cycles, so occupancy cannot fall back on its own.
	m := v.RegisterMutator(8)
	bt := p.BlockTable()
	for i := 0; i < 1<<18; i++ {
		if i%64 == 0 && fired() > 0 {
			break
		}
		m.Roots[0] = m.Alloc(0, 2, 256)
		if bt.InUseBlocks()+bt.LOS().BlocksInUse() > bt.BudgetBlocks()*3/4 {
			m.BlockedSleep(3 * time.Millisecond) // let the poll observe it
		}
	}
	m.Deregister()

	if fired() == 0 {
		t.Fatal("sustained occupancy above the threshold never fired the free-fraction trigger")
	}
}
