package core_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lxr/internal/core"
	"lxr/internal/obj"
)

// TestStoreReleasePublishes is the message-passing shape of
// mem.TestTSOLitmus on real hardware and under the race detector: one
// mutator allocates, stamps a payload and publishes the object through
// a barriered store into a shared mature slot; another spins on that
// slot and must never see a reference whose header or payload is still
// zero. Header, payload and slot all go through Arena.StoreRelease —
// plain stores on amd64, atomic under -race, where a plain fallback
// would be reported as a data race against the reader's loads.
// Mutation check: hoisting w.Store above the WritePayloads fails it
// within milliseconds.
func TestStoreReleasePublishes(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a reader running beside the writer")
	}
	publications := uint64(1 << 20)
	if testing.Short() {
		publications = 1 << 16
	}
	v := newVM(t, core.Config{HeapBytes: 16 << 20})
	w := v.RegisterMutator(2)
	v.Globals[0] = w.Alloc(1, 1, 0)
	w.RequestGC() // the shared holder is mature from here on
	w.RequestGC()

	var done atomic.Bool // set by the writer when finished, by the reader on failure
	var observed atomic.Int64
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		r := v.RegisterMutator(1)
		defer r.Deregister()
		var last obj.Ref
		for !done.Load() {
			r.Safepoint()
			holder := v.Globals[0]
			for spin := 0; spin < 256; spin++ { // no safepoint inside: nothing moves
				o := r.Load(holder, 0)
				if o.IsNil() || o == last {
					continue
				}
				last = o
				hdr := v.OM.A.Load(o)
				p0, p1 := r.ReadPayload(o, 0), r.ReadPayload(o, 1)
				if hdr == 0 || p0 == 0 || p1 != ^p0 {
					t.Errorf("saw the reference before the object: %s",
						core.DiagnoseRefForTest(v.Plan, o, v.Stats))
					done.Store(true)
					return
				}
				observed.Add(1)
			}
		}
	}()

	for k := uint64(1); k <= publications && !done.Load(); k++ {
		o := w.Alloc(2, 0, 16)
		w.WritePayload(o, 0, k)
		w.WritePayload(o, 1, ^k)
		w.Store(v.Globals[0], 0, o)
	}
	done.Store(true)
	w.Blocked(reader.Wait)
	w.Deregister()
	if observed.Load() == 0 && !t.Failed() {
		t.Error("the reader never saw a publication: nothing was tested")
	}
	t.Logf("%d publications, %d observed by the reader", publications, observed.Load())
}
