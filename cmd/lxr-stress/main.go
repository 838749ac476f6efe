// Command lxr-stress hammers a collector with randomized object-graph
// churn while holding a verifiable structure live, and checks it after
// every phase — a quick invariant smoke for collector changes. Set
// LXR_VERIFY=1 for LXR's internal checks too.
//
//	lxr-stress -collector LXR -heap 32 -seconds 10 -mutators 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"lxr"
)

func main() {
	var (
		collector = flag.String("collector", "LXR", "collector")
		heapMB    = flag.Int("heap", 32, "heap size MB")
		seconds   = flag.Int("seconds", 10, "stress duration")
		mutators  = flag.Int("mutators", 4, "mutator threads")
	)
	flag.Parse()

	rt, err := lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		Collector: lxr.CollectorKind(*collector),
		HeapBytes: *heapMB << 20,
		GCThreads: 4,
	})
	if err != nil {
		fmt.Println(err)
		os.Exit(1)
	}
	defer rt.Shutdown()

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var wg sync.WaitGroup
	failures := make(chan string, *mutators)
	for w := 0; w < *mutators; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.RegisterMutator(8)
			defer m.Deregister()

			buildRing(m, id, ringLen, nil)
			rounds := 0
			for time.Now().Before(deadline) {
				// Churn.
				for i := 0; i < 20000; i++ {
					g := m.Alloc(2, 2, int(m.Rand()%200)+8)
					if i%8 != 0 { // short chains only: cut so history dies
						m.Store(g, 0, m.Roots[2])
					}
					m.Roots[2] = g
				}
				m.Roots[2] = 0
				if msg := checkRing(m, id, ringLen); msg != "" {
					failures <- fmt.Sprintf("mutator %d: %s", id, msg)
					return
				}
				rounds++
			}
			fmt.Printf("mutator %d: %d rounds verified\n", id, rounds)
		}(w)
	}
	wg.Wait()
	close(failures)
	bad := false
	for f := range failures {
		fmt.Println("FAIL:", f)
		bad = true
	}
	st := rt.Stats
	fmt.Printf("pauses=%d totalSTW=%s defensiveSkips=%d\n",
		st.PauseCount(), st.TotalPause().Round(time.Microsecond), st.Counter("lxr.defensive.skips"))
	if bad {
		os.Exit(1)
	}
	fmt.Println("OK")
}

// ringLen is the node count of each mutator's live ring.
const ringLen = 512

// buildRing links n fresh nodes into a ring held by m.Roots[0], node i
// carrying id<<32|i, using m.Roots[1] for the node last linked. Every
// store goes through a root: Alloc may run a copying collection, after
// which a local reference to an older node points at its from-space
// copy. between, when non-nil, runs after node i is linked.
func buildRing(m *lxr.Mutator, id, n int, between func(i int)) {
	for i := 0; i < n; i++ {
		node := m.Alloc(1, 1, 16)
		m.WritePayload(node, 0, uint64(id)<<32|uint64(i))
		if i == 0 {
			m.Roots[0] = node
		} else {
			m.Store(m.Roots[1], 0, node)
		}
		m.Roots[1] = node
		if between != nil {
			between(i)
		}
	}
	m.Store(m.Roots[1], 0, m.Roots[0]) // close the ring
	m.Roots[1] = 0
}

// checkRing walks the ring buildRing made and returns what is wrong
// with it, or "" when every payload holds and the walk comes back to
// the start.
func checkRing(m *lxr.Mutator, id, n int) string {
	cur := m.Roots[0]
	for i := 0; i < n; i++ {
		want := uint64(id)<<32 | uint64(i)
		if got := m.ReadPayload(cur, 0); got != want {
			return fmt.Sprintf("node %d payload %x want %x", i, got, want)
		}
		cur = m.Load(cur, 0)
	}
	if cur != m.Roots[0] {
		return "ring no longer closed"
	}
	return ""
}
