package core

import (
	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// decDeath handles an object whose count reached zero: it upholds the
// SATB interruption invariant (never delete an unmarked object while a
// trace is underway — mark and scan it first, §3.2.2), pushes recursive
// decrements for its referents, and reclaims its memory.
// shard is the caller's stats shard (worker ID + 1, or 0 off-worker);
// pushRec receives child references; record receives the touched block.
func (p *LXR) decDeath(shard int, ref obj.Ref, pushRec func(obj.Ref), record func(int)) {
	p.ctr.deadOld.AddAt(shard, 1)
	if p.satbActive.Load() && !p.marks.Get(ref) {
		p.marks.Set(ref)
		// Scan into the SATB trace before the memory can be reclaimed;
		// seeds go through the tracer's thread-safe inbox so both the
		// concurrent thread and in-pause parallel workers may use this.
		p.om.EachSlot(ref, func(_ int, _ mem.Address, v obj.Ref) {
			if !v.IsNil() {
				p.tracer.SeedOne(v)
			}
		})
	}
	p.om.EachSlot(ref, func(_ int, _ mem.Address, v obj.Ref) {
		if !v.IsNil() {
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

// applyDec applies one decrement (following forwarding installed by
// evacuation) and performs death processing on a 1→0 transition. shard
// selects the caller's stats shard: pause workers pass their worker
// ID + 1 so per-decrement counter updates never contend across threads;
// the concurrent driver passes 0.
func (p *LXR) applyDec(shard int, ref obj.Ref, pushRec func(obj.Ref), record func(int)) {
	if !p.plausibleRef(ref) {
		p.ctr.skip.AddAt(shard, 1)
		return
	}
	ref = p.om.Resolve(ref)
	if !p.saneRef(ref) {
		p.ctr.skip.AddAt(shard, 1)
		return
	}
	p.ctr.decrements.AddAt(shard, 1)
	if old := p.rc.Dec(ref); old == 1 {
		p.decDeath(shard, ref, pushRec, record)
	}
}

// processDecsInPause drains a decrement batch with the parallel worker
// pool (used by the -LD ablation, where every pause drains its own
// batch).
func (p *LXR) processDecsInPause(decs []mem.Address) {
	if len(decs) == 0 {
		return
	}
	p.processDecWork([][]mem.Address{decs}, nil)
}

// processDecWork finishes decrement work inside a pause, segment-granular
// across all N pause workers. Each worker records touched blocks in its
// own slot of a per-worker array (worker IDs are stable), so the merge
// needs no lock. seedTouched carries blocks the concurrent driver's
// partially completed batches had already touched; they are released
// here together with the blocks this drain touches.
func (p *LXR) processDecWork(segs [][]mem.Address, seedTouched []int) {
	perWorker := make([]map[int]struct{}, p.pool.N)
	if len(segs) > 0 {
		p.pool.DrainSegs(segs, func(w *gcwork.Worker) {
			perWorker[w.ID] = map[int]struct{}{}
			w.Scratch = perWorker[w.ID]
		}, func(w *gcwork.Worker, a mem.Address) {
			local := w.Scratch.(map[int]struct{})
			p.applyDec(w.ID+1, obj.Ref(a),
				func(c obj.Ref) { w.Push(c) },
				func(b int) { local[b] = struct{}{} })
		}, nil)
	}
	touched := map[int]struct{}{}
	for _, b := range seedTouched {
		touched[b] = struct{}{}
	}
	for _, m := range perWorker {
		for b := range m {
			touched[b] = struct{}{}
		}
	}
	for b := range touched {
		p.maybeReleaseAfterDecs(b)
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
