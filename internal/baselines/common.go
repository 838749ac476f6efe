// Package baselines implements the production collectors the paper
// compares against, reimplemented as algorithmic skeletons on the same
// substrate LXR uses:
//
//   - SemiSpace — classic copying collector (LBO baseline, Fig. 7)
//   - Serial / Parallel — OpenJDK's stop-the-world collectors,
//     modelled as 1-thread / N-thread copying collectors
//   - Immix — full-heap stop-the-world mark-region tracing, with an
//     optional field-logging write barrier used to measure barrier
//     overhead (Table 7 "o/h")
//   - G1 — region-based generational: STW young evacuation driven by a
//     cross-region write barrier, concurrent SATB marking, mixed
//     collections evacuating low-liveness old regions
//   - Shenandoah — non-generational concurrent mark + concurrent
//     evacuation with Brooks-style forwarding resolved on every access,
//     degenerating to STW on allocation failure
//   - ZGC — non-generational concurrent mark + relocation with a
//     load-value barrier on every reference load and a minimum heap
//     requirement
//
// The skeletons preserve the design decisions the paper critiques —
// tracing-only identification, strict evacuation, expensive barriers,
// concurrent copying — so the relative costs the evaluation reports can
// emerge from real work on the simulated heap.
package baselines

import (
	"fmt"
	"time"

	"lxr/internal/conctrl"
	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// base carries the plumbing shared by all baseline plans.
type base struct {
	bt   *immix.BlockTable
	om   obj.Model
	pool *gcwork.Pool
	vm   *vm.VM
	name string

	// events is the optional event tracer (nil when tracing is off —
	// every recording site stays one predictable nil check). Named to
	// avoid shadowing the plans' SATB tracers.
	events *trace.Tracer
}

func newBase(name string, heapBytes, gcThreads int) base {
	if heapBytes == 0 {
		heapBytes = 64 << 20
	}
	if gcThreads == 0 {
		gcThreads = 4
	}
	bt := immix.NewBlockTable(immix.Config{HeapBytes: heapBytes})
	return base{
		bt:   bt,
		om:   obj.Model{A: bt.Arena},
		pool: gcwork.NewPool(gcThreads),
		name: name,
	}
}

// Name implements vm.Plan.
func (b *base) Name() string { return b.name }

// Arena implements vm.Plan.
func (b *base) Arena() *mem.Arena { return b.bt.Arena }

// BlockTable exposes the heap for tests and the harness.
func (b *base) BlockTable() *immix.BlockTable { return b.bt }

// SetTracer attaches the structured event tracer: the concurrent
// controller records quantum spans, each plan's start decisions record
// trigger instants and its pause phases record spans on the GC timeline. Must be called before Boot (the controller
// is constructed and the trigger names are interned there).
func (b *base) SetTracer(t *trace.Tracer) { b.events = t }

// newController builds the plan's shared concurrent controller around
// its cycle driver. stats may be nil for drivers that account their
// concurrent slices themselves (Shenandoah's full-cycle quantum
// contains pauses); poll selects the idle re-check period for
// occupancy-triggered drivers. Call from Boot, once the VM exists.
func (b *base) newController(d conctrl.CycleDriver, stats *vm.Stats, poll time.Duration) *conctrl.Controller {
	return conctrl.NewController(d, conctrl.Config{Stats: stats, Poll: poll, Trace: b.events})
}

// GCWorkerStats exposes the pool's per-worker in-pause utilization
// (harness telemetry).
func (b *base) GCWorkerStats() []gcwork.WorkerStat { return b.pool.WorkerStats() }

// allocLarge is the shared large-object path.
func (b *base) allocLarge(l obj.Layout) (obj.Ref, bool) {
	a, ok := b.bt.LOS().Alloc(l.Size)
	if !ok {
		return mem.Nil, false
	}
	b.om.WriteHeader(a, l)
	return a, true
}

// oom panics with a diagnostic.
func (b *base) oom(l obj.Layout) {
	panic(fmt.Sprintf("%s: out of memory allocating %d bytes: %s", b.name, l.Size, b.bt))
}

// copyWith evacuates ref using the worker's allocator, racing with
// other workers via the forwarding word. On copy-space exhaustion the
// caller-supplied onExhausted policy runs while the claim (FwdBusy) is
// still held; it must leave the forwarding word in a terminal state
// (abandon or install) before returning the address racers should see.
func (b *base) copyWith(al *immix.Allocator, ref obj.Ref, onExhausted func(obj.Ref) obj.Ref) obj.Ref {
	for {
		fw := b.om.ForwardingWord(ref)
		switch fw & 3 {
		case obj.FwdForwarded:
			return obj.Ref(fw >> 2)
		case obj.FwdBusy:
			continue
		}
		if !b.om.TryClaimForwarding(ref) {
			continue
		}
		size := b.om.Size(ref)
		dst, ok := al.Alloc(size)
		if !ok {
			return onExhausted(ref)
		}
		b.om.CopyTo(ref, dst)
		b.om.InstallForwarding(ref, dst)
		return dst
	}
}

// copyInto is copyWith with the strict-copying policy: on exhaustion
// the claim is abandoned and Nil returned (the object stays in place).
func (b *base) copyInto(al *immix.Allocator, ref obj.Ref) obj.Ref {
	return b.copyWith(al, ref, func(r obj.Ref) obj.Ref {
		b.om.AbandonForwarding(r)
		return mem.Nil
	})
}

// saneRef reports whether v plausibly decodes to an object: granule-
// aligned, inside the arena, with a credible header size. Values read
// through stale dirty/remset slots or scanned mid-reuse by a concurrent
// trace can be arbitrary bit patterns; following them would walk wild
// slot counts or copy wild sizes (the same defensive check LXR's core
// applies everywhere).
func (b *base) saneRef(v obj.Ref) bool {
	if v.IsNil() || v&(mem.Granule-1) != 0 || !b.om.A.Contains(v) {
		return false
	}
	s := b.om.Size(v)
	if s < obj.MinSize {
		return false
	}
	if s > obj.LargeThreshold && !b.om.IsLarge(v) {
		return false
	}
	return true
}

// markBits is a helper constructing a fresh granule-grained mark table.
func markBits(a *mem.Arena) *meta.BitTable { return meta.NewBitTable(a, mem.GranuleLog) }

// liveLarge sweeps the large object space by mark bit.
func (b *base) sweepLargeUnmarked(marks *meta.BitTable) {
	b.bt.LOS().Each(func(a mem.Address) {
		if !marks.Get(a) {
			b.bt.LOS().Free(a)
		}
	})
}

// gcRetry wraps the common allocate-fail-collect-retry loop.
func gcRetry(v *vm.VM, m *vm.Mutator, attempts int, alloc func() (obj.Ref, bool), collect func()) (obj.Ref, bool) {
	for i := 0; ; i++ {
		if r, ok := alloc(); ok {
			return r, true
		}
		if i >= attempts {
			return mem.Nil, false
		}
		e := v.GCEpoch()
		v.CollectIfEpoch(m, e, collect)
	}
}
