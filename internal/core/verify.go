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
// and asserts that every reachable object has a plausible header and a
// non-zero reference count. It exists for debugging; the overhead is a
// full heap trace per pause.
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
	count := 0
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ref.IsNil() || !seen.TrySet(ref) {
			continue
		}
		count++
		if !p.plausibleRef(ref) {
			panic(fmt.Sprintf("lxr verify[%s] epoch %d: implausible reachable ref %x", stage, p.epoch.Load(), uint64(ref)))
		}
		size := p.om.Size(ref)
		if size < obj.MinSize || size > obj.MaxSize/2 {
			panic(fmt.Sprintf("lxr verify[%s] epoch %d: ref %x bad size %d (block %d state %d flags %x rc %d mark %v)",
				stage, p.epoch.Load(), uint64(ref), size, ref.Block(), p.bt.State(ref.Block()), p.bt.Word(ref.Block()), p.rc.Get(ref), p.marks.Get(ref)))
		}
		if p.rc.Get(ref) == 0 {
			panic(fmt.Sprintf("lxr verify[%s] epoch %d: reachable ref %x has rc 0 (block %d state %d flags %x young=%v size=%d straddle=%v mark=%v)",
				stage, p.epoch.Load(), uint64(ref), ref.Block(), p.bt.State(ref.Block()), p.bt.Word(ref.Block()),
				p.bt.HasFlag(ref.Block(), immix.FlagYoung), size, p.straddle.Get(ref), p.marks.Get(ref)))
		}
		p.om.EachSlot(ref, func(_ int, _ mem.Address, v obj.Ref) {
			if !v.IsNil() {
				stack = append(stack, v)
			}
		})
	}
	_ = count
}

// Debug provenance: which mechanism last freed each block and at which
// epoch (enabled with LXR_VERIFY).
type blockProvenance struct {
	epoch uint64
	by    string
}

// noteFree records provenance when verification is on.
func (p *LXR) noteFree(idx int, by string) {
	if !verifyEnabled {
		return
	}
	p.provMu.Lock()
	if p.prov == nil {
		p.prov = map[int]blockProvenance{}
	}
	p.prov[idx] = blockProvenance{p.epoch.Load(), by}
	p.provMu.Unlock()
}

// blockEvent is one block lifecycle event (debug).
type blockEvent struct {
	epoch uint64
	ev    string
}

// installBlockTrace wires the block-table event log (debug builds).
func (p *LXR) installBlockTrace() {
	if !verifyEnabled {
		return
	}
	p.bt.Trace = func(idx int, ev string) {
		p.provMu.Lock()
		if p.blockLog == nil {
			p.blockLog = map[int][]blockEvent{}
		}
		l := append(p.blockLog[idx], blockEvent{p.epoch.Load(), ev})
		if len(l) > 10 {
			l = l[len(l)-10:]
		}
		p.blockLog[idx] = l
		p.provMu.Unlock()
	}
}

// noteSpan records span handouts per line (debug).
func (p *LXR) noteSpan(start, end mem.Address, recycled bool) {
	by := "span-clean"
	if recycled {
		by = "span-recycled"
	}
	p.provMu.Lock()
	if p.lineProv == nil {
		p.lineProv = map[int]blockProvenance{}
	}
	for l := start.Line(); l < int((end+mem.LineSize-1)>>mem.LineSizeLog); l++ {
		p.lineProv[l] = blockProvenance{p.epoch.Load(), by}
	}
	p.provMu.Unlock()
}

// diagnoseSlot panics with full context about a slot that delivered an
// implausible reference during increment processing (debug builds).
func (p *LXR) diagnoseSlot(slot mem.Address, v obj.Ref) {
	b := slot.Block()
	tb := v.Block()
	p.provMu.Lock()
	prov := p.prov[b]
	tprov := p.prov[tb]
	slotLine := p.lineProv[slot.Line()]
	valLine := p.lineProv[v.Line()]
	vlog := p.blockLog[tb]
	p.provMu.Unlock()
	panic(fmt.Sprintf("lxr diag epoch %d: slot %x (block %d w=%x freedBy=%q@%d span=%q@%d) -> val %x (block %d w=%x freedBy=%q@%d span=%q@%d rc=%d hdr=%x lineRC=%08x)",
		p.epoch.Load(), uint64(slot), b, p.bt.Word(b), prov.by, prov.epoch, slotLine.by, slotLine.epoch,
		uint64(v), tb, p.bt.Word(tb), tprov.by, tprov.epoch, valLine.by, valLine.epoch,
		p.rc.Get(v), p.om.A.Load(v), p.rc.LineWord(v.Line())) + fmt.Sprintf(" valBlockLog=%v", vlog))
}

// saneRef reports whether v plausibly denotes an object: aligned,
// in-arena, with a believable header.
func (p *LXR) saneRef(v obj.Ref) bool {
	if !p.plausibleRef(v) {
		return false
	}
	s := p.om.Size(v)
	if s < obj.MinSize {
		return false
	}
	if s > obj.LargeThreshold && !p.om.IsLarge(v) {
		return false
	}
	return true
}
