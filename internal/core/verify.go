package core

import (
	"fmt"
	"os"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
)

// verifyEnabled turns on the cheap in-line checks (any non-empty
// LXR_VERIFY; the stress tools and CI run with LXR_VERIFY=1).
var verifyEnabled = os.Getenv("LXR_VERIFY") != ""

// verifyFull (LXR_VERIFY=2) additionally runs verifyHeap at the end of
// every pause.
var verifyFull = os.Getenv("LXR_VERIFY") == "2"

// verifyHeap walks the full reachable graph while the world is stopped
// and asserts that every reachable object has a plausible header, a
// non-zero reference count and, at pause end, every reference slot
// armed (Unlogged): a slot left Logged would let the next epoch's first
// store to it skip the barrier and lose its coalesced increment and
// decrement. It exists for debugging; the overhead is a full heap trace
// per pause.
func (p *LXR) verifyHeap(stage string) {
	if !verifyFull {
		return
	}
	seen := meta.NewBitTable(p.om.A, mem.GranuleLog)
	var stack []obj.Ref
	for _, s := range p.rootSlots {
		if !(*s).IsNil() {
			stack = append(stack, *s)
		}
	}
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ref.IsNil() || !seen.TrySet(ref) {
			continue
		}
		if !p.plausibleRef(ref) {
			panic(fmt.Sprintf("lxr verify[%s] epoch %d: implausible reachable ref %x", stage, p.epoch.Load(), uint64(ref)))
		}
		size := p.om.Size(ref)
		if size < obj.MinSize || size > obj.MaxSize/2 {
			panic(fmt.Sprintf("lxr verify[%s] epoch %d: ref %x bad size %d (block %d state %d flags %x rc %d mark %v)",
				stage, p.epoch.Load(), uint64(ref), size, ref.Block(), p.bt.State(ref.Block()), p.bt.Word(ref.Block()), p.rc.Get(ref), p.marks.Get(ref)))
		}
		if p.rc.Get(ref) == 0 {
			panic(fmt.Sprintf("lxr verify[%s] epoch %d: reachable ref %x has rc 0 (block %d state %d flags %x young=%v size=%d covered=%v mark=%v)",
				stage, p.epoch.Load(), uint64(ref), ref.Block(), p.bt.State(ref.Block()), p.bt.Word(ref.Block()),
				p.bt.HasFlag(ref.Block(), immix.FlagYoung), size, p.rc.Covered(ref.Line()), p.marks.Get(ref)))
		}
		p.om.EachSlot(ref, func(i int, slot mem.Address, v obj.Ref) {
			if st := p.logs.Get(slot); st != meta.LogUnlogged {
				panic(fmt.Sprintf("lxr verify[%s] epoch %d: reachable ref %x slot %d at %x is not armed (log state %d)",
					stage, p.epoch.Load(), uint64(ref), i, uint64(slot), st))
			}
			if !v.IsNil() {
				stack = append(stack, v)
			}
		})
	}
}

// verifyFresh asserts that a new object's reference slots read Logged,
// the state a span or large-object hand-out resets them to, on which
// the implicitly-dead optimisation rests: an Unlogged slot here is a
// pause's word-wide arm (meta.FieldLogTable.ArmWord) that reached memory
// an allocator has handed out again (DESIGN.md, "Re-arming by the
// word").
func (p *LXR) verifyFresh(ref obj.Ref) {
	for i, n := 0, p.om.NumRefs(ref); i < n; i++ {
		if slot := p.om.SlotAddr(ref, i); p.logs.Get(slot) != meta.LogLogged {
			panic(fmt.Sprintf("lxr verify epoch %d: new object %x slot %d at %x reads log state %d, not Logged (block %d state %d flags %x lineRC=%08x)",
				p.epoch.Load(), uint64(ref), i, uint64(slot), p.logs.Get(slot),
				ref.Block(), p.bt.State(ref.Block()), p.bt.Word(ref.Block()), p.rc.LineWord(slot.Line())))
		}
	}
}

// diagnoseSlot panics with full context about a slot that delivered an
// implausible reference during increment processing (LXR_VERIFY only).
func (p *LXR) diagnoseSlot(slot mem.Address, v obj.Ref) {
	panic(fmt.Sprintf("lxr diag epoch %d: slot %x (block %d w=%x) -> val %x (block %d w=%x rc=%d hdr=%x lineRC=%08x)",
		p.epoch.Load(), uint64(slot), slot.Block(), p.bt.Word(slot.Block()),
		uint64(v), v.Block(), p.bt.Word(v.Block()), p.rc.Get(v), p.om.A.Load(v), p.rc.LineWord(v.Line())))
}

// saneRef reports whether v plausibly denotes an object: aligned,
// in-arena, with a believable header.
func (p *LXR) saneRef(v obj.Ref) bool {
	if !p.plausibleRef(v) {
		return false
	}
	s := p.om.Size(v)
	return s >= obj.MinSize && (s <= obj.LargeThreshold || p.om.IsLarge(v))
}

// skipDec counts a decrement whose target is implausible (rc -1: no
// count read) or has no sane header; under LXR_VERIFY it panics.
func (p *LXR) skipDec(ref obj.Ref, rc int) {
	if verifyEnabled {
		panic(fmt.Sprintf("lxr verify epoch %d: decrement of %x (rc %d) names no object", p.epoch.Load(), uint64(ref), rc))
	}
	p.ctr.skip.Add(1)
}

// skipInc counts an increment whose referent v, read from slot (rootTag|i
// for root i), names no object; under LXR_VERIFY it panics.
func (p *LXR) skipInc(slot mem.Address, v obj.Ref) {
	if verifyEnabled {
		rc := -1 // no count read: v is outside the arena or misaligned
		if p.plausibleRef(v) {
			rc = int(p.rc.Get(v))
		}
		panic(fmt.Sprintf("lxr verify epoch %d: increment from slot %x to %x (rc %d) names no object", p.epoch.Load(), uint64(slot), uint64(v), rc))
	}
	p.ctr.skip.Add(1)
}
