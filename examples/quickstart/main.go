// Quickstart: embed the simulated runtime, allocate a small object
// graph under LXR, mutate it through the barriers, trigger collections,
// and print GC statistics — including how much of the collector's work
// ran concurrently, between pauses.
package main

import (
	"fmt"
	"time"

	"lxr"
)

func main() {
	rt := lxr.NewRuntime(lxr.RuntimeConfig{
		Collector: lxr.CollectorLXR,
		HeapBytes: 32 << 20,
		GCThreads: 2,
		// Full LXR tuning (ablations, triggers) is available through
		// the LXR field, an *lxr.LXRConfig.
	})
	defer rt.Shutdown()

	m := rt.RegisterMutator(8) // 8 root slots
	defer m.Deregister()

	// Build a binary tree: each node has 2 reference slots and an
	// 8-byte payload holding its depth.
	var build func(depth int) lxr.Ref
	build = func(depth int) lxr.Ref {
		n := m.Alloc(1, 2, 8)
		m.WritePayload(n, 0, uint64(depth))
		m.Roots[1] = n // keep the subtree root visible across child allocs
		if depth > 0 {
			left := build(depth - 1)
			m.Roots[2] = left
			right := build(depth - 1)
			m.Store(n, 0, left)
			m.Store(n, 1, right)
		}
		return n
	}

	// NOTE on discipline: any reference held across an allocation must
	// be in m.Roots — the collector may move young objects, and roots
	// are how it finds (and fixes) your references. Reload after GCs.
	m.Roots[0] = build(10)

	// Churn garbage so collections happen.
	for i := 0; i < 2_000_000; i++ {
		m.Roots[3] = m.Alloc(0, 1, 24)
	}
	m.Roots[3] = 0
	m.RequestGC()

	// The tree survived; count its nodes via the public API.
	var count func(n lxr.Ref) int
	count = func(n lxr.Ref) int {
		if n == 0 {
			return 0
		}
		return 1 + count(m.Load(n, 0)) + count(m.Load(n, 1))
	}
	root := m.Roots[0] // reload: it may have been evacuated
	fmt.Printf("tree intact: %d nodes (expect %d)\n", count(root), 1<<11-1)

	st := rt.Stats
	fmt.Printf("collections: %d pauses, total STW %s\n",
		st.PauseCount(), st.TotalPause().Round(time.Microsecond))
	ps := st.PausePercentiles(50, 95, 99.9)
	fmt.Printf("pause p50=%s p95=%s p99.9=%s\n", ps[0], ps[1], ps[2])
	fmt.Printf("objects reclaimed young/old/satb: %d/%d/%d\n",
		st.Counter("lxr.alloc.objects")-st.Counter("lxr.promoted"),
		st.Counter("lxr.dead.old"), st.Counter("lxr.dead.satb"))
	fmt.Printf("concurrent work: %s (of %s total GC work)\n",
		st.ConcurrentWork().Round(time.Microsecond),
		st.GCWork().Round(time.Microsecond))
}
