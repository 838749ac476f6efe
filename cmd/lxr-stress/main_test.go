package main

import (
	"testing"

	"lxr"
)

// TestRingSurvivesCopyWhileBuilding forces a collection between the
// ring's first two nodes. The copying collectors move node 0 then, so
// a builder that links node 1 through a reference it held across the
// Alloc writes into from-space and the ring breaks at node 1.
func TestRingSurvivesCopyWhileBuilding(t *testing.T) {
	for _, c := range []lxr.CollectorKind{lxr.CollectorSemiSpace, lxr.CollectorG1, lxr.CollectorLXR} {
		t.Run(string(c), func(t *testing.T) {
			rt := lxr.NewRuntime(lxr.RuntimeConfig{Collector: c, HeapBytes: 16 << 20, GCThreads: 2})
			defer rt.Shutdown()
			m := rt.RegisterMutator(8)
			defer m.Deregister()
			buildRing(m, 3, 64, func(i int) {
				if i == 0 {
					m.RequestGC()
				}
			})
			if msg := checkRing(m, 3, 64); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}
