package baselines

import (
	"runtime"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/satb"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Immix is full-heap stop-the-world mark-region tracing Immix
// (Blackburn & McKinley 2008): bump allocation with line recycling,
// collection by parallel tracing that marks objects and their lines,
// then a line-granularity sweep. No copying (defragmentation omitted).
//
// Its role in the reproduction is twofold: an additional LBO baseline,
// and — with WithBarrier — the substrate for the barrier-overhead
// measurement of Table 7: the field-logging write barrier runs with all
// its real costs but its buffers are discarded, so the difference
// between Immix and Immix+barrier isolates barrier overhead.
type Immix struct {
	base
	marks     *meta.BitTable // object marks (granule)
	lineMarks *meta.BitTable // line marks
	logs      *meta.FieldLogTable
	barrier   bool

	trigFull trace.NameID // "trigger:heap-full", interned in Boot
}

// NewImmix builds the collector. withBarrier enables the field-logging
// write barrier whose captures are discarded.
func NewImmix(heapBytes, gcThreads int, withBarrier bool) *Immix {
	name := "Immix"
	if withBarrier {
		name = "Immix+WB"
	}
	p := &Immix{base: newBase(name, heapBytes, gcThreads), barrier: withBarrier}
	p.marks = markBits(p.bt.Arena)
	p.lineMarks = meta.NewBitTable(p.bt.Arena, mem.LineSizeLog)
	p.logs = meta.NewFieldLogTable(p.bt.Arena)
	if withBarrier {
		p.bt.LOS().OnAlloc = func(start, end mem.Address) { p.logs.ClearRange(start, end) }
	}
	return p
}

// logSpinBudget bounds the busy-wait on a field-log state held Busy by
// a racing logger before yielding the processor.
const logSpinBudget = 64

type immixMut struct {
	alloc  immix.Allocator
	decBuf gcwork.AddrBuffer
	modBuf gcwork.AddrBuffer
}

type immixLines struct{ t *meta.BitTable }

// FreeLineBits implements immix.LineMap: for a line-granularity bit
// table the global line index is the bit index, so a block's 128
// free-line bits are four inverted word loads.
func (l immixLines) FreeLineBits(firstLine int, bm *[mem.LinesPerBlock / 32]uint32) {
	for i := range bm {
		bm[i] = ^l.t.Word(firstLine/32 + i)
	}
}

// Boot implements vm.Plan.
func (p *Immix) Boot(v *vm.VM) {
	p.vm = v
	p.trigFull = p.events.TriggerName("heap-full")
}

// Shutdown implements vm.Plan: parks and releases the persistent GC
// worker pool.
func (p *Immix) Shutdown() { p.pool.Stop() }

// BindMutator implements vm.Plan.
func (p *Immix) BindMutator(m *vm.Mutator) {
	ms := &immixMut{}
	ms.alloc = immix.Allocator{BT: p.bt, Lines: immixLines{p.lineMarks}}
	if p.barrier {
		ms.alloc.OnSpan = func(start, end mem.Address) {
			p.logs.ClearRange(start, end)
		}
	}
	m.PlanState = ms
}

// UnbindMutator implements vm.Plan.
func (p *Immix) UnbindMutator(m *vm.Mutator) {
	m.PlanState.(*immixMut).alloc.Flush()
	m.PlanState = nil
}

// Alloc implements vm.Plan.
func (p *Immix) Alloc(m *vm.Mutator, l obj.Layout) obj.Ref {
	m.Safepoint()
	ms := m.PlanState.(*immixMut)
	r, ok := gcRetry(p.vm, m, 2,
		func() (obj.Ref, bool) {
			if l.Large {
				return p.allocLarge(l)
			}
			return ms.alloc.Alloc(l.Size)
		},
		func() {
			// Allocation failure is the only trigger.
			p.events.Trigger(p.trigFull,
				float64(p.bt.InUseBlocks()+p.bt.LOS().BlocksInUse()), float64(p.bt.BudgetBlocks()))
			p.collectLocked()
		})
	if !ok {
		p.oom(l)
	}
	if !l.Large {
		p.om.WriteHeader(r, l)
	}
	return r
}

// WriteRef implements vm.Plan: optionally the field-logging barrier with
// discarded captures (barrier-overhead measurement), otherwise a plain
// store.
func (p *Immix) WriteRef(m *vm.Mutator, src obj.Ref, i int, val obj.Ref) {
	slot := p.om.SlotAddr(src, i)
	if p.barrier && p.logs.Get(slot) != 0 {
		spins := 0
		for {
			switch p.logs.Get(slot) {
			case meta.LogLogged:
			case meta.LogUnlogged:
				if !p.logs.TryBeginLog(slot) {
					continue
				}
				ms := m.PlanState.(*immixMut)
				if old := p.om.A.LoadRef(slot); !old.IsNil() {
					ms.decBuf.Push(old)
				}
				ms.modBuf.Push(slot)
				p.logs.FinishLog(slot)
			default:
				// Busy: bounded spin, then yield — a preempted logger
				// must not stall this store indefinitely.
				if spins++; spins >= logSpinBudget {
					spins = 0
					runtime.Gosched()
				}
				continue
			}
			break
		}
	}
	// The same release store as LXR's barrier ends in, so Table 7's
	// anchor and the barrier it is subtracted from pay for the same store.
	p.om.A.StoreRelease(slot, uint64(val))
}

// ReadRef implements vm.Plan: no read barrier.
func (p *Immix) ReadRef(m *vm.Mutator, src obj.Ref, i int) obj.Ref {
	return p.om.LoadSlot(src, i)
}

// PollSafepoint implements vm.Plan.
func (p *Immix) PollSafepoint(m *vm.Mutator) {}

// CollectNow implements vm.Plan: full STW parallel trace and sweep,
// self-serialised.
func (p *Immix) CollectNow(cause string) {
	p.vm.RunCollection(nil, func() { p.collectLocked() })
}

func (p *Immix) collectLocked() {
	dur := p.vm.StopTheWorld("full", func() { p.collect() })
	p.vm.Stats.AddGCWork(dur * time.Duration(p.pool.N))
}

func (p *Immix) collect() {
	ev := p.events
	ph := time.Now()
	clearBitsParallel(p.pool, p.marks, p.lineMarks)
	p.vm.EachMutator(func(m *vm.Mutator) {
		ms := m.PlanState.(*immixMut)
		ms.alloc.Flush()
		// Discard barrier captures (segment-granular, no flattening);
		// re-arming happens via marking below.
		ms.decBuf.TakeSegs()
		ms.modBuf.TakeSegs()
	})
	ev.Phase(trace.NameClear, ph)
	ph = time.Now()
	seeds := p.vm.SnapshotRoots(nil)
	t := &satb.Tracer{
		OM:    p.om,
		Marks: p.marks,
		OnMark: func(r obj.Ref) {
			p.markLines(r)
			if p.barrier {
				n := p.om.NumRefs(r)
				for i := 0; i < n; i++ {
					p.logs.SetUnlogged(p.om.SlotAddr(r, i))
				}
			}
		},
	}
	t.Seed(seeds)
	t.DrainParallel(p.pool)
	ev.PhaseArg(trace.NameMark, ph, uint64(len(seeds)))

	ph = time.Now()
	p.bt.RebuildFromSweep(func(idx int) immix.BlockClass {
		if st := p.bt.State(idx); st == immix.StateLargeHead || st == immix.StateLargeBody || st == immix.StateUntracked {
			return immix.ClassFull
		}
		// The line-mark table keeps one bit per line, so a block's 128
		// lines are exactly four words: accumulate them instead of 128
		// per-line probes.
		firstWord := idx * mem.LinesPerBlock / 32
		var anyUsed, allUsed uint32 = 0, ^uint32(0)
		for i := 0; i < mem.LinesPerBlock/32; i++ {
			w := p.lineMarks.Word(firstWord + i)
			anyUsed |= w
			allUsed &= w
		}
		switch {
		case anyUsed == 0:
			return immix.ClassFree
		case allUsed != ^uint32(0):
			return immix.ClassPartial
		default:
			return immix.ClassFull
		}
	})
	p.sweepLargeUnmarked(p.marks)
	clearBitsParallel(p.pool, p.marks)
	ev.Phase(trace.NameSweepRebuild, ph)
}

// markLines marks every line the object covers, the last included: the
// allocator skips no free line.
func (p *Immix) markLines(ref obj.Ref) {
	if p.om.IsLarge(ref) {
		return
	}
	end := ref + mem.Address(p.om.Size(ref))
	for l := ref.Line(); l <= (end - 1).Line(); l++ {
		p.lineMarks.Set(mem.LineStart(l))
	}
}
