package baselines

import (
	"fmt"
	"os"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// g1AuditEnabled gates the mixed-collection evacuation audit: at every
// mixed pause — after the collection set has been evacuated, before its
// regions are freed — the heap's marked objects are walked and no slot
// may still hold an address inside a region about to be freed. The
// evacuation is remembered-set-driven, so an un-rewritten incoming edge
// means the remsets (plus dirty slots and promotion scans) failed to
// cover that slot: freeing the region would leave it dangling. Enabled
// by the same LXR_VERIFY switch as core's verifier, or per-test via
// SetG1AuditForTest. The cost is a full heap walk per mixed pause.
var g1AuditEnabled = os.Getenv("LXR_VERIFY") != ""

// auditMixedEvacuation runs inside a mixed pause, with the world
// stopped, after the evacuation drain and the tracer's ResolvePending
// and before the region-free loop. It asserts the remset-driven
// evacuation was sound in three passes:
//
//  1. no root slot still points into a to-be-freed region — cset or
//     young, both are released by the same loop (the drain rewrites
//     every root in place);
//  2. no marked live object — surviving old regions and the large
//     object space — holds a reference into a to-be-freed region: every
//     such edge must have been covered by a remset entry, a dirty slot,
//     or a promotion scan, all of which rewrite the slot to the copy's
//     address. (Objects promoted during this pause are unmarked when the
//     mark has already finished; their slots were scanned — and
//     rewritten — by the evacuation drain itself, so skipping them
//     cannot produce a false alarm.)
//  3. walking the freed regions directly: every forwarded object's copy
//     must land outside the freed set (fresh old regions are never cset
//     members), and no forwarding word may be left mid-claim.
func (p *G1) auditMixedEvacuation(rootSlots []*obj.Ref) {
	// Freed set: every region this pause's free loop will release —
	// the cset (FlagDefrag old regions) and all young regions, minus
	// regions that suffered an evacuation failure (those are promoted
	// in place and survive). Young regions matter: they are freed in
	// the same loop, so a live edge left pointing into one dangles just
	// as surely as a missed cset edge.
	freed := map[int]bool{}
	p.bt.AllBlocks(func(idx int) {
		st := p.bt.State(idx)
		if st != immix.StateFull && st != immix.StateReserved {
			return
		}
		if p.bt.HasFlag(idx, immix.FlagEvacuating) {
			return
		}
		if p.bt.Kind(idx) == g1KindYoung ||
			(p.bt.Kind(idx) == g1KindOld && p.bt.HasFlag(idx, immix.FlagDefrag)) {
			freed[idx] = true
		}
	})
	if len(freed) == 0 {
		return
	}
	intoFreed := func(v obj.Ref) bool {
		return !v.IsNil() && v&(mem.Granule-1) == 0 && p.om.A.Contains(v) && freed[v.Block()]
	}

	// 1. Roots.
	for _, s := range rootSlots {
		if v := *s; intoFreed(v) {
			panic(fmt.Sprintf("g1 audit: root still points into freed cset region %d (ref %x)",
				v.Block(), uint64(v)))
		}
	}

	// 2. Incoming edges from marked survivors.
	auditSlots := func(r obj.Ref, where string) {
		n := p.om.NumRefs(r)
		for i := 0; i < n; i++ {
			if v := p.om.A.LoadRef(p.om.SlotAddr(r, i)); intoFreed(v) {
				panic(fmt.Sprintf(
					"g1 audit: %s object %x slot %d still points into freed cset region %d (ref %x): edge not covered by any remset/dirty/promotion record",
					where, uint64(r), i, v.Block(), uint64(v)))
			}
		}
	}
	p.bt.AllBlocks(func(idx int) {
		st := p.bt.State(idx)
		if st != immix.StateFull && st != immix.StateReserved {
			return
		}
		if p.bt.Kind(idx) != g1KindOld || freed[idx] {
			return
		}
		p.eachBlockObject(idx, func(r obj.Ref) {
			if p.marks.Get(r) {
				auditSlots(r, "old")
			}
		})
	})
	p.bt.LOS().Each(func(a mem.Address) {
		if r := obj.Ref(a); p.marks.Get(r) {
			auditSlots(r, "large")
		}
	})

	// 3. The cset regions themselves.
	for idx := range freed {
		p.eachBlockObject(idx, func(r obj.Ref) {
			fw := p.om.ForwardingWord(r)
			switch fw & 3 {
			case obj.FwdForwarded:
				if nv := obj.Ref(fw >> 2); freed[nv.Block()] {
					panic(fmt.Sprintf("g1 audit: cset object %x forwarded into freed region %d (copy %x)",
						uint64(r), nv.Block(), uint64(nv)))
				}
			case obj.FwdBusy:
				panic(fmt.Sprintf("g1 audit: cset object %x left mid-claim (forwarding word %x)",
					uint64(r), fw))
			}
		})
	}
	p.mixedAudits.Add(1)
}

// eachBlockObject walks a bump-allocated region's contiguous objects by
// size header (G1 regions are never line-recycled, so objects are
// contiguous from the region start up to the unallocated tail). The
// size header (word 0) stays intact across forwarding, which lives in
// word 1.
func (p *G1) eachBlockObject(idx int, f func(obj.Ref)) {
	a := mem.BlockStart(idx)
	end := a + mem.BlockSize
	for a < end {
		size := int(uint32(p.om.A.Load(a)))
		if size < obj.MinSize || size > mem.BlockSize {
			return // unallocated tail
		}
		f(obj.Ref(a))
		a = (a + mem.Address(size)).AlignUp(mem.Granule)
	}
}
