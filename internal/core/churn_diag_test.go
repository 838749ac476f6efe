package core

// Diagnostic instrumentation for heap-integrity tests: pause-boundary
// list verification and double-allocation detection. Armed by the churn
// tests so an intermittent corruption report carries the collector
// state of the damaged node instead of a bare "list corrupted".

import (
	"fmt"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// DiagnoseRefForTest reports collector metadata for a reference
// (visible to the external test package).
func DiagnoseRefForTest(plan vm.Plan, cur obj.Ref, st *vm.Stats) string {
	p := plan.(*LXR)
	blk := cur.Block()
	return fmt.Sprintf(
		"ref=%#x rc=%d lineword=%#x blk=%d state=%v young=%v dirty=%v evac=%v defrag=%v marks=%v covered=%v satbActive=%v epoch=%d hdr=%#x | deadSATB=%d deadOld=%d satbPauses=%d pauses=%d lazyPauses=%d decs=%d skips=%d",
		uint64(cur), p.rc.Get(cur), p.rc.LineWord(cur.Line()), blk, p.bt.State(blk),
		p.bt.HasFlag(blk, immix.FlagYoung), p.bt.HasFlag(blk, immix.FlagDirty),
		p.bt.HasFlag(blk, immix.FlagEvacuating), p.bt.HasFlag(blk, immix.FlagDefrag),
		p.marks.Get(cur), p.rc.Covered(cur.Line()),
		p.satbActive.Load(), p.epoch.Load(),
		p.om.A.Load(mem.Address(cur)),
		st.Counter(CtrDeadSATB), st.Counter(CtrDeadOld),
		st.Counter(CtrPausesSATB), st.Counter(CtrPauses), st.Counter(CtrPausesLazy),
		st.Counter(CtrDecrements), st.Counter(CtrDefensiveSkip))
}

// ArmListWatch registers a pause hook that verifies, inside every
// pause (world stopped), that each mutator's Roots[1] list is intact —
// localising a corruption to the pause boundary at which it appeared.
func ArmListWatch(v *vm.VM, n int, report func(string)) {
	testPauseHook = func(p *LXR) {
		v.EachMutator(func(m *vm.Mutator) {
			cur := m.Roots[1]
			if cur.IsNil() {
				return // list not built yet
			}
			for i := 0; i < n; i++ {
				if cur.IsNil() {
					report(fmt.Sprintf("pause %d epoch %d: truncated at %d", p.vm.Stats.Counter(CtrPauses), p.epoch.Load(), i))
					return
				}
				pay := p.om.A.Load(p.om.PayloadAddr(p.om.Resolve(cur)))
				if pay != uint64(i) {
					report(fmt.Sprintf("pause %d epoch %d: node %d bad payload=%d %s",
						p.vm.Stats.Counter(CtrPauses), p.epoch.Load(), i, pay,
						DiagnoseRefForTest(p, cur, p.vm.Stats)))
					return
				}
				cur = p.om.Resolve(cur)
				cur = p.om.A.LoadRef(p.om.SlotAddr(cur, 0))
			}
		})
	}
}

// DisarmListWatch removes the diagnostic hooks.
func DisarmListWatch() { testPauseHook = nil; testDoubleAllocHook = nil }

// ArmDoubleAllocWatch reports survivor copies landing on an already
// counted granule — the signature of an allocation span handed out
// twice.
func ArmDoubleAllocWatch(report func(string)) {
	testDoubleAllocHook = func(p *LXR, src, dst obj.Ref, oldRC uint32, al *immix.Allocator) {
		report(fmt.Sprintf("DOUBLE-ALLOC: copy of %#x landed on %#x oldrc=%d %s",
			uint64(src), uint64(dst), oldRC, DiagnoseRefForTest(p, dst, p.vm.Stats)))
	}
}
