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
// selects the caller's stats shard: pause workers and loaned workers
// pass their worker ID + 1 so per-decrement counter updates never
// contend across threads; single-threaded callers pass 0.
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

// decDrainFuncs builds the worker callbacks every parallel decrement
// drain shares — the between-pause loans, the in-pause resumption of an
// interrupted loan, and the -LD ablation's full in-pause drain. Each
// worker records touched blocks in its own slot of a per-worker result
// array (worker IDs are stable across the pool's lifetime) so the merge
// needs no lock; setup is re-entrant so one perWorker array can span
// several dispatches of the same logical drain.
func (p *LXR) decDrainFuncs() (perWorker []map[int]struct{}, setup func(*gcwork.Worker), f func(*gcwork.Worker, mem.Address)) {
	perWorker = make([]map[int]struct{}, p.pool.N)
	setup = func(w *gcwork.Worker) {
		m := perWorker[w.ID]
		if m == nil {
			m = map[int]struct{}{}
			perWorker[w.ID] = m
		}
		w.Scratch = m
	}
	f = func(w *gcwork.Worker, a mem.Address) {
		local := w.Scratch.(map[int]struct{})
		p.applyDec(w.ID+1, obj.Ref(a),
			func(c obj.Ref) { w.Push(c) },
			func(b int) { local[b] = struct{}{} })
	}
	return perWorker, setup, f
}

// processDecsInPause drains a decrement batch with the parallel worker
// pool (used by the -LD ablation, where every pause drains its own
// batch).
func (p *LXR) processDecsInPause(decs []mem.Address) {
	if len(decs) == 0 {
		return
	}
	p.processDecWork(nil, [][]mem.Address{decs}, nil)
}

// processDecWork finishes decrement work inside a pause. An interrupted
// loan's remainder is resumed segment-granular across all N pause
// workers (Loan.ResumeInPause seeds DrainSegs directly — the loan-aware
// pause path, no re-chunking through a flat copy), then any remaining
// flat segments drain the same way. seedTouched carries blocks the
// concurrent driver's partially completed batches had already touched;
// they are released here together with the blocks this drain touches.
func (p *LXR) processDecWork(intr *gcwork.Loan, segs [][]mem.Address, seedTouched []int) {
	perWorker, setup, f := p.decDrainFuncs()
	if intr != nil {
		intr.ResumeInPause(setup, f, nil)
	}
	if len(segs) > 0 {
		p.pool.DrainSegs(segs, setup, f, nil)
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
