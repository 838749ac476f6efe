package main

import (
	"testing"
	"time"
)

func hashFor(s *spec, seed uint64) uint64 {
	var scripts []*script
	for c := 0; c < clients; c++ {
		scripts = append(scripts, buildScript(s, seed, c))
	}
	return scriptHash(scripts)
}

func TestScriptDependsOnSeedAlone(t *testing.T) {
	for _, s := range specs {
		a, b, other := hashFor(s, 7), hashFor(s, 7), hashFor(s, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %#x and %#x", s.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 both hash to %#x", s.name, a)
		}
	}
	if a, b := buildScript(specs[0], 7, 0), buildScript(specs[0], 7, 1); scriptHash([]*script{a}) == scriptHash([]*script{b}) {
		t.Error("clients 0 and 1 of one seed share a script")
	}
}

func TestScriptMatchesSpec(t *testing.T) {
	for _, s := range specs {
		sc := buildScript(s, 1, 0)
		var survive int
		var bytes float64
		for _, a := range sc.allocs {
			if a.flags&flagSurvive != 0 {
				survive++
				if int(a.slot) >= s.slots() {
					t.Fatalf("%s: survivor slot %d outside the table", s.name, a.slot)
				}
			}
			bytes += float64(a.payload)
		}
		got := 1000 * float64(survive) / float64(len(sc.allocs))
		if want := float64(s.survivePermille); got < 0.9*want || got > 1.1*want {
			t.Errorf("%s: %.1f‰ of scripted allocations survive, spec says %v‰", s.name, got, want)
		}
		order := s.prefillOrder()
		seen := make([]bool, s.slots())
		for _, slot := range order {
			if seen[slot] {
				t.Fatalf("%s: prefill fills slot %d twice", s.name, slot)
			}
			seen[slot] = true
		}
		if len(order) != s.slots() {
			t.Errorf("%s: prefill fills %d of %d slots", s.name, len(order), s.slots())
		}
	}
}

// closedLoopCounts runs a closed-loop workload for a fixed number of
// transactions per client and returns what the clients issued.
func closedLoopCounts(t *testing.T, s *spec, seed uint64, txns int64) counts {
	t.Helper()
	r, err := setUp(s, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.maxTxns = txns
	w := r.measure(time.Minute)
	if w.failed != 0 || len(w.failures) != 0 {
		t.Fatalf("%s: %d failed operations: %v", s.name, w.failed, w.failures)
	}
	return w.after.work.sub(w.before.work)
}

func TestSameSeedSameWork(t *testing.T) {
	for _, s := range specs {
		if s.open {
			continue
		}
		a := closedLoopCounts(t, s, 3, 2000)
		b := closedLoopCounts(t, s, 3, 2000)
		if a != b {
			t.Errorf("%s: two runs of seed 3 issued %+v and %+v", s.name, a, b)
		}
		if a.txns != 2000*clients {
			t.Errorf("%s: %d transactions, want %d", s.name, a.txns, 2000*clients)
		}
		if c := closedLoopCounts(t, s, 4, 2000); c.bytes == a.bytes {
			t.Errorf("%s: seeds 3 and 4 allocated exactly %d bytes each", s.name, c.bytes)
		}
	}
}
