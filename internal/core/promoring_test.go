package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// drainCaught runs drainIncrements over segs and returns the value of a
// panic on any worker, unwrapped, or "" when none was raised.
func drainCaught(p *LXR, segs [][]mem.Address) (panicked string) {
	defer func() {
		if r := recover(); r != nil {
			if wp, ok := r.(*gcwork.WorkerPanic); ok {
				r = wp.Value
			}
			panicked = fmt.Sprint(r)
		}
	}()
	p.drainIncrements(segs)
	return ""
}

// TestPromotionRingDrainsDry: the increment drain queues each heap slot
// whose target reads count 0 in its worker's ring of promotions in
// flight, and empties the ring whenever its local stack runs dry
// (DESIGN.md, "Lookahead prefetch"). Two workers drain logged fields and roots into
// young chains longer than the ring, promoted in place and in all-young
// (evacuating) blocks, with two fields naming one young object, a root
// naming an evacuated one, a young object with more referrers than the
// sticky maximum, and fields naming counted objects. Afterwards every
// reachable young object is promoted exactly once, its count is its
// referrers' up to the sticky maximum, every field and root holds the
// final address, the unreachable young objects are untouched, and no
// worker ended with a promotion queued.
func TestPromotionRingDrainsDry(t *testing.T) {
	for round := range 10 {
		promotionRingRound(t, round)
	}
}

func promotionRingRound(t *testing.T, round int) {
	const (
		chains   = 6
		chainLen = 3 * promoRing
		matures  = 64
	)
	r := rand.New(rand.NewSource(int64(round)))
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	p.conc.quiesce()
	defer p.conc.release()

	al := &immix.Allocator{BT: p.bt, OnSpan: p.onSpan}
	mature := make([]obj.Ref, matures)
	for i := range mature {
		mature[i], _ = al.Alloc(96)
		p.om.WriteHeader(mature[i], obj.Layout{NumRefs: 3, Size: 96})
		p.rc.Set(mature[i], uint32(1+2*(i%2))) // 1, or stuck
	}
	al.Flush()
	for _, idx := range p.bt.TakeDirty() {
		p.bt.ClearFlag(idx, immix.FlagYoung|immix.FlagDirty)
	}

	// Young objects: chains of chainLen, then one spare each, which
	// nothing names. The first set is promoted in place, the second
	// evacuated.
	type node struct {
		orig obj.Ref
		evac bool
		next *node // what its field names
		refs int   // referrers, by the graph built below
	}
	var nodes []*node
	var heads [2][]*node
	for set, evac := range []bool{false, true} {
		for range chains {
			var prev *node
			for k := 0; k <= chainLen; k++ {
				a, _ := al.Alloc(64)
				p.om.WriteHeader(a, obj.Layout{NumRefs: 1, Size: 64})
				n := &node{orig: a, evac: evac}
				nodes = append(nodes, n)
				switch {
				case k == chainLen: // the spare
				case prev == nil:
					heads[set] = append(heads[set], n)
				default:
					p.om.StoreSlot(prev.orig, 0, a)
					prev.next = n
					n.refs++
				}
				prev = n
			}
		}
		al.Flush()
		if !evac {
			for _, n := range nodes {
				p.bt.ClearFlag(n.orig.Block(), immix.FlagYoung)
			}
		}
	}
	for _, n := range nodes {
		if p.youngEvacCandidate(n.orig) != n.evac {
			t.Fatalf("round %d: young object %x lies in a block whose young flag reads %v, want %v", round, uint64(n.orig), !n.evac, n.evac)
		}
	}

	// Referrers: a logged mature field per chain head, a second one for
	// each set's first head, and three more for each set's second head,
	// which then has four referrers against a sticky maximum of three;
	// some fields name mature objects; roots name one head of each set
	// that a field names too, and one evacuated head that nothing else
	// names.
	var fields []mem.Address
	byField := map[mem.Address]*node{}
	matureRefs := map[obj.Ref]uint32{}
	free := r.Perm(matures * 3)
	field := func(n *node, target obj.Ref) {
		i := free[0]
		free = free[1:]
		slot := p.om.SlotAddr(mature[i/3], i%3)
		p.om.A.StoreRef(slot, target)
		fields = append(fields, slot)
		if n != nil {
			byField[slot] = n
			n.refs++
		} else {
			matureRefs[target]++
		}
	}
	for set := range heads {
		for c, h := range heads[set] {
			if set == 1 && c == chains-1 {
				continue // named by a root alone
			}
			field(h, h.orig)
		}
		field(heads[set][0], heads[set][0].orig)
		for range 3 {
			field(heads[set][1], heads[set][1].orig)
		}
	}
	for range 20 {
		field(nil, mature[r.Intn(matures)])
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	rootVals := []obj.Ref{heads[0][2].orig, heads[1][2].orig, heads[1][chains-1].orig}
	rootNodes := []*node{heads[0][2], heads[1][2], heads[1][chains-1]}
	p.rootSlots = p.rootSlots[:0]
	var roots []mem.Address
	for i := range rootVals {
		p.rootSlots = append(p.rootSlots, &rootVals[i])
		roots = append(roots, rootTag|mem.Address(i))
		rootNodes[i].refs++
	}
	matureRC := make([]uint32, matures)
	for i, m := range mature {
		matureRC[i] = p.rc.Get(m)
	}

	// Segments of 5 and 13 fields, so that both workers take seeds and
	// a segment can overfill a ring.
	var segs [][]mem.Address
	for i, n := 0, 5; i < len(fields); i, n = i+n, 18-n {
		segs = append(segs, fields[i:min(i+n, len(fields))])
	}
	segs = append(segs, roots)
	promoted0, evac0 := v.Stats.Counter(CtrPromoted), v.Stats.Counter(CtrYoungEvacBytes)
	if msg := drainCaught(p, segs); msg != "" {
		t.Fatalf("round %d: the drain panicked: %s", round, msg)
	}

	final := func(n *node) obj.Ref { return p.om.Resolve(n.orig) }
	reachable, evacuated := int64(0), int64(0)
	for _, n := range nodes {
		to := final(n)
		switch {
		case n.refs == 0:
			if to != n.orig || p.rc.Get(n.orig) != 0 {
				t.Errorf("round %d: unreachable young object %x was touched: now at %x, count %d", round, uint64(n.orig), uint64(to), p.rc.Get(n.orig))
			}
			continue
		case n.evac && to == n.orig:
			t.Errorf("round %d: young object %x in an all-young block was not evacuated", round, uint64(n.orig))
		case !n.evac && to != n.orig:
			t.Errorf("round %d: young object %x promoted in place moved to %x", round, uint64(n.orig), uint64(to))
		}
		reachable++
		if n.evac {
			evacuated += 64
		}
		if got, want := p.rc.Get(to), uint32(min(n.refs, meta.RCMax)); got != want {
			t.Errorf("round %d: young object %x (now %x) has count %d, want %d from %d referrers", round, uint64(n.orig), uint64(to), got, want, n.refs)
		}
		if p.logs.Get(p.om.SlotAddr(to, 0)) != meta.LogUnlogged {
			t.Errorf("round %d: promoted object %x's field is not armed", round, uint64(to))
		}
	}
	if got := v.Stats.Counter(CtrPromoted) - promoted0; got != reachable {
		t.Errorf("round %d: %d promotions, want one per reachable young object: %d", round, got, reachable)
	}
	if got := v.Stats.Counter(CtrYoungEvacBytes) - evac0; got != evacuated {
		t.Errorf("round %d: %d bytes evacuated, want %d", round, got, evacuated)
	}

	// Every referrer holds the final address of what it names.
	for slot, n := range byField {
		if got := p.om.A.LoadRef(slot); got != final(n) {
			t.Errorf("round %d: field %x holds %x, want %x", round, uint64(slot), uint64(got), uint64(final(n)))
		}
	}
	for _, n := range nodes {
		if n.refs > 0 && n.next != nil {
			if got := p.om.LoadSlot(final(n), 0); got != final(n.next) {
				t.Errorf("round %d: young object %x's field holds %x, want %x", round, uint64(final(n)), uint64(got), uint64(final(n.next)))
			}
		}
	}
	for i, n := range rootNodes {
		if rootVals[i] != final(n) {
			t.Errorf("round %d: root %d holds %x, want %x", round, i, uint64(rootVals[i]), uint64(final(n)))
		}
	}
	for i, m := range mature {
		if want := min(matureRC[i]+matureRefs[m], meta.RCMax); p.rc.Get(m) != want {
			t.Errorf("round %d: mature object %x has count %d, want %d", round, uint64(m), p.rc.Get(m), want)
		}
	}
}

// TestIncrementSkipPanicsUnderVerify: a root naming no object (here a
// misaligned address) is one of skipInc's sites. Under LXR_VERIFY the
// drain panics, naming the slot, the value, its count and the epoch;
// without it the increment is skipped and counted in
// lxr.defensive.skips.
func TestIncrementSkipPanicsUnderVerify(t *testing.T) {
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	p.conc.quiesce()
	defer p.conc.release()
	defer func(on bool) { verifyEnabled = on }(verifyEnabled)

	bad := obj.Ref(mem.BlockStart(2) + mem.WordSize)
	p.rootSlots = []*obj.Ref{&bad}
	for _, on := range []bool{true, false} {
		verifyEnabled = on
		s0 := v.Stats.Counter(CtrDefensiveSkip)
		msg := drainCaught(p, [][]mem.Address{{rootTag}})
		skips := v.Stats.Counter(CtrDefensiveSkip) - s0
		want := fmt.Sprintf("increment from slot %x to %x (rc -1) names no object", uint64(rootTag), uint64(bad))
		switch {
		case on && (!strings.Contains(msg, want) || skips != 0):
			t.Errorf("under LXR_VERIFY: panic %q and %d skips, want a panic with %q and none counted", msg, skips, want)
		case !on && (msg != "" || skips != 1):
			t.Errorf("without LXR_VERIFY: panic %q and %d skips, want no panic and one skip", msg, skips)
		}
		if bad != obj.Ref(mem.BlockStart(2)+mem.WordSize) {
			t.Errorf("the skipped root was rewritten to %x", uint64(bad))
		}
	}
}
