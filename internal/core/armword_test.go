package core

import (
	"math/rand"
	"sync"
	"testing"

	"lxr/internal/obj"
	"lxr/internal/vm"
)

// TestArmByTheWordUnderVerify drives a batch-mutate-like churn — two
// mutators each rewiring a table of mature three-reference objects into
// cycles, storing young objects into it and dropping the rest — with
// both directions of the word-wide arm's invariant checked: every new
// object's reference slots read Logged (an over-arm leaking into memory
// handed out again fails Alloc), and at every pause end every reachable
// object's reference slots read Unlogged (an under-arm fails
// verifyHeap). The heap keeps clean blocks free, so young survivors are
// evacuated as well as promoted in place. Both checks are forced on
// here whatever LXR_VERIFY says; CI also runs the test under -race.
func TestArmByTheWordUnderVerify(t *testing.T) {
	defer func(e, f bool) { verifyEnabled, verifyFull = e, f }(verifyEnabled, verifyFull)
	verifyEnabled, verifyFull = true, true
	p := New(Config{HeapBytes: 16 << 20, GCThreads: 2})
	v := vm.New(p, 4)
	defer v.Shutdown()

	const (
		mutators = 2
		chunks   = 8
		perChunk = 200 // table slots per chunk object
		slots    = chunks * perChunk
		rounds   = 1000
	)
	errs := make(chan string, mutators)
	var wg sync.WaitGroup
	for id := 0; id < mutators; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := v.RegisterMutator(chunks + 1)
			defer m.Deregister()
			r := rand.New(rand.NewSource(int64(id) + 1))
			want := make([]uint64, slots) // each table slot's object's payload tag
			tag := uint64(id) << 32
			// newObj allocates a 24-120 byte payload object with three
			// reference slots, tagged in payload word 0. The allocation is
			// a safepoint: references loaded before it may be stale.
			newObj := func() obj.Ref {
				o := m.Alloc(1, 3, 8+8*r.Intn(13))
				tag++
				m.WritePayload(o, 0, tag)
				return o
			}
			table := func(i int) obj.Ref { return m.Load(m.Roots[i/perChunk], i%perChunk) }
			for c := 0; c < chunks; c++ {
				m.Roots[c] = m.Alloc(2, perChunk, 0)
				for j := 0; j < perChunk; j++ {
					o := newObj()
					m.Store(m.Roots[c], j, o)
					want[c*perChunk+j] = tag
				}
			}
			m.RequestGC() // the table is mature from here on
			for round := 0; round < rounds; round++ {
				for a := 0; a < 64; a++ {
					o := newObj()
					m.Store(o, 0, table(r.Intn(slots)))
					if r.Intn(100) < 15 { // survives: replaces a table object
						i := r.Intn(slots)
						m.Store(m.Roots[i/perChunk], i%perChunk, o)
						want[i] = tag
					} else {
						m.Roots[chunks] = o
					}
				}
				for s := 0; s < 192; s++ {
					m.Store(table(r.Intn(slots)), r.Intn(3), table(r.Intn(slots)))
				}
				if round%100 == 99 {
					m.RequestGC()
				}
			}
			for i := range want {
				if got := m.ReadPayload(table(i), 0); got != want[i] {
					errs <- "table slot holds the wrong object"
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if v.Stats.Counter(CtrYoungEvacBytes) == 0 {
		t.Fatal("no young object was evacuated")
	}
	if v.Stats.Counter(CtrBarrierSlow) == 0 {
		t.Fatal("no field was logged")
	}
	if got := v.Stats.Counter(CtrDefensiveSkip); got != 0 {
		t.Fatalf("%d defensive skips", got)
	}
}
