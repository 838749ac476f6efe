package core

import (
	"math/rand"
	"testing"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// TestDrainRearmsAfterCounting: the increment drain counts first and
// re-arms the logged fields after, in one pass over its seeds (DESIGN.md,
// "Re-arming by the word"). Two workers drain logged fields, whose log
// words read Logged as the barrier leaves them, and a root. The fields
// name mature objects counted 1, 2 and 3 with up to four referrers each,
// and the heads and middles of young chains longer than the promotion
// ring, one chain promoted in place and one evacuated. Afterwards every
// logged field and every reference slot of every promoted object reads
// Unlogged, every count is its old count plus its referrers up to the
// sticky maximum, and lxr.stuck counts exactly the 2→3 transitions.
func TestDrainRearmsAfterCounting(t *testing.T) {
	for round := range 6 {
		rearmRound(t, round)
	}
}

func rearmRound(t *testing.T, round int) {
	const (
		holders  = 64 // mature objects whose three fields were logged
		targets  = 48 // mature objects counted 1, 2, 3, 1, …
		chainLen = 2*promoRing + 3
	)
	r := rand.New(rand.NewSource(int64(round)))
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	p.conc.quiesce()
	defer p.conc.release()

	al := &immix.Allocator{BT: p.bt, OnSpan: p.onSpan}
	alloc := func(refs int) obj.Ref {
		a, _ := al.Alloc(64)
		p.om.WriteHeader(a, obj.Layout{NumRefs: refs, Size: 64})
		return a
	}
	holder, target := make([]obj.Ref, holders), make([]obj.Ref, targets)
	for i := range holder {
		holder[i] = alloc(3)
		p.rc.Set(holder[i], meta.RCMax)
		p.logs.ArmWords(p.om.SlotAddr(holder[i], 0), p.om.SlotAddr(holder[i], 3))
	}
	for i := range target {
		target[i] = alloc(0)
		p.rc.Set(target[i], uint32(1+i%3))
	}
	al.Flush()
	for _, idx := range p.bt.TakeDirty() {
		p.bt.ClearFlag(idx, immix.FlagYoung|immix.FlagDirty)
	}

	refs := map[obj.Ref]uint32{} // referrers, by original address
	var chains [2][]obj.Ref
	for c, evac := range []bool{false, true} {
		for k := range chainLen {
			y := alloc(1)
			if k > 0 {
				p.om.StoreSlot(chains[c][k-1], 0, y)
				refs[y]++
			}
			chains[c] = append(chains[c], y)
		}
		al.Flush()
		if !evac {
			for _, y := range chains[c] {
				p.bt.ClearFlag(y.Block(), immix.FlagYoung)
			}
		}
		for _, y := range chains[c] {
			if p.youngEvacCandidate(y) != evac {
				t.Fatalf("round %d: young object %x lies in a block whose young flag reads %v, want %v", round, uint64(y), !evac, evac)
			}
		}
	}

	var fields []mem.Address
	free := r.Perm(holders * 3)
	name := func(x obj.Ref) {
		slot := p.om.SlotAddr(holder[free[0]/3], free[0]%3)
		free = free[1:]
		p.om.A.StoreRef(slot, x)
		p.logs.FinishLog(slot) // as the barrier leaves a field it logged
		fields = append(fields, slot)
		refs[x]++
	}
	for i, x := range target {
		for range i % 5 {
			name(x)
		}
	}
	for c := range chains {
		for range 3 {
			name(chains[c][0])
		}
		name(chains[c][chainLen/2])
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	rootVal := target[1]
	p.rootSlots = []*obj.Ref{&rootVal}
	refs[rootVal]++

	old := map[obj.Ref]uint32{}
	stuck := int64(0)
	for x, n := range refs {
		old[x] = p.rc.Get(x)
		if old[x] < meta.RCMax && old[x]+n >= meta.RCMax {
			stuck++
		}
	}
	for _, f := range fields {
		if got := p.logs.Get(f); got != meta.LogLogged {
			t.Fatalf("round %d: logged field %x reads log state %d before the drain", round, uint64(f), got)
		}
	}

	var segs [][]mem.Address
	for i, n := 0, 5; i < len(fields); i, n = i+n, 18-n {
		segs = append(segs, fields[i:min(i+n, len(fields))])
	}
	segs = append(segs, []mem.Address{rootTag})
	stuck0 := v.Stats.Counter(CtrStuck)
	if msg := drainCaught(p, segs); msg != "" {
		t.Fatalf("round %d: the drain panicked: %s", round, msg)
	}

	for _, f := range fields {
		if got := p.logs.Get(f); got != meta.LogUnlogged {
			t.Errorf("round %d: logged field %x reads log state %d after the drain, not Unlogged", round, uint64(f), got)
		}
	}
	for x, n := range refs {
		to := p.om.Resolve(x)
		if got, want := p.rc.Get(to), min(old[x]+n, meta.RCMax); got != want {
			t.Errorf("round %d: object %x (now %x) has count %d, want %d: %d, plus %d referrers", round, uint64(x), uint64(to), got, want, old[x], n)
		}
		if old[x] != 0 {
			continue
		}
		for i := range p.om.NumRefs(to) {
			if s := p.om.SlotAddr(to, i); p.logs.Get(s) != meta.LogUnlogged {
				t.Errorf("round %d: promoted object %x's slot %d reads log state %d, not Unlogged", round, uint64(to), i, p.logs.Get(s))
			}
		}
	}
	if got := v.Stats.Counter(CtrStuck) - stuck0; got != stuck {
		t.Errorf("round %d: lxr.stuck rose by %d, want %d 2→3 transitions", round, got, stuck)
	}
}
