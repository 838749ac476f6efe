package core

import (
	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// decTally counts a drain's decrements and deaths; it reaches the shared
// counters once per driver quantum or pause worker.
type decTally struct{ decs, deaths int64 }

func (p *LXR) addDecTally(t *decTally) {
	p.ctr.decrements.Add(t.decs)
	p.ctr.deadOld.Add(t.deaths)
}

// decDeath handles an object whose last reference is gone: it upholds
// the SATB interruption invariant (never delete an unmarked object while
// a trace is underway — mark and scan it first, §3.2.2), pushes
// recursive decrements for its referents, and reclaims its memory. The
// count is cleared last, so on the concurrent driver the object's line
// reads free only once the scan is over. pushRec receives child
// references; record receives the touched block.
func (p *LXR) decDeath(ref obj.Ref, pushRec func(obj.Ref), record func(int)) {
	// Seeds go into the SATB trace before the memory can be reclaimed,
	// through the tracer's thread-safe inbox, so both the concurrent
	// thread and in-pause parallel workers may use this.
	seed := p.satbActive.Load() && !p.marks.Get(ref)
	if seed {
		p.marks.Set(ref)
	}
	p.om.EachSlot(ref, func(_ int, _ mem.Address, v obj.Ref) {
		if !v.IsNil() {
			if seed {
				p.tracer.SeedOne(v)
			}
			pushRec(v)
		}
	})
	if p.om.IsLarge(ref) {
		p.rc.Set(ref, 0)
		p.bt.LOS().Free(ref)
		return
	}
	p.reclaimObjectMeta(ref)
	record(ref.Block())
}

// applyDec applies one decrement and performs death processing on a
// 1→0 transition. The count is read first: a stuck count, and a 2 on the
// driver, decide without the header (DESIGN.md, "Metadata before memory").
//
// onDriver is true only on the concurrent driver. There, mutators
// allocate alongside: a count that read 0 before the death scan would
// let an allocator take the line, zero it and allocate over the dying
// object, whose scan would then decrement the new object's live
// referents. Outside pauses the driver is the only decrementer
// (increments happen only in pauses), so the count it reads is the
// count it changes, and it leaves a last count of 1 for decDeath to
// clear after the scan. Pause workers decrement concurrently with each
// other, so they take the atomic 1→0; no allocator runs in a pause.
func (p *LXR) applyDec(onDriver bool, ref obj.Ref, t *decTally, pushRec func(obj.Ref), record func(int)) {
	if !p.plausibleRef(ref) {
		p.skipDec(ref, -1)
		return
	}
	rc := p.rc.Get(ref)
	if rc == 0 {
		ref = p.om.Resolve(ref)
		rc = p.rc.Get(ref)
	}
	if (verifyEnabled || rc < 2 || rc == 2 && !onDriver) && !p.saneRef(ref) {
		p.skipDec(ref, int(rc))
		return
	}
	t.decs++
	if onDriver && rc == 1 || p.rc.Dec(ref) == 1 {
		t.deaths++
		p.decDeath(ref, pushRec, record)
	}
}

// prefetchDec hints the header of a queued decrement that may be a death.
func (p *LXR) prefetchDec(a mem.Address) {
	if r := obj.Ref(a); p.plausibleRef(r) && p.rc.Get(r) <= 1 {
		p.om.A.Prefetch(a)
	}
}

// processDecWork finishes decrement work inside a pause, segment-granular
// across all N pause workers, each prefetching for the item a few pops
// ahead as drainDecs does. Each worker records touched blocks in its
// own slot of a per-worker array (worker IDs are stable), so the merge
// needs no lock. seedTouched carries blocks the concurrent driver's
// partially completed batches had already touched; they are released
// here together with the blocks this drain touches (once released, a
// block is no longer Full, so one met twice is released once).
func (p *LXR) processDecWork(segs [][]mem.Address, seedTouched []int) {
	perWorker := make([]map[int]struct{}, p.pool.N)
	if len(segs) > 0 {
		p.pool.DrainSegs(segs, func(w *gcwork.Worker) {
			perWorker[w.ID] = map[int]struct{}{}
			w.Scratch = &decTally{}
		}, func(w *gcwork.Worker, a mem.Address) {
			if next, ok := w.Ahead(gcwork.PrefetchAhead); ok {
				p.prefetchDec(next)
			}
			local := perWorker[w.ID]
			p.applyDec(false, obj.Ref(a), w.Scratch.(*decTally),
				func(c obj.Ref) { w.Push(c) },
				func(b int) { local[b] = struct{}{} })
		}, func(w *gcwork.Worker) { p.addDecTally(w.Scratch.(*decTally)) })
	}
	for _, b := range seedTouched {
		p.maybeReleaseAfterDecs(b)
	}
	for _, m := range perWorker {
		for b := range m {
			p.maybeReleaseAfterDecs(b)
		}
	}
}

// maybeReleaseAfterDecs re-examines a block in which decrements freed
// objects (lazy reclamation, §3.3.1). Only full, unlisted blocks without
// fresh allocation change state: a dirty block waits for the young sweep.
func (p *LXR) maybeReleaseAfterDecs(idx int) {
	if p.bt.State(idx) != immix.StateFull || p.bt.HasFlag(idx, immix.FlagDirty) {
		return
	}
	switch p.classifyBlock(idx) {
	case blockEmpty:
		p.bt.ReleaseFree(idx)
	case blockPartial:
		p.bt.ReleaseRecycled(idx)
	}
}
