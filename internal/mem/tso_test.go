package mem

import (
	"fmt"
	"testing"
)

// A store-buffer (x86-TSO) model small enough to exhaust: every thread
// has a FIFO buffer its stores enter and its own loads snoop; at any
// step any thread may run its next instruction or drain its oldest
// buffered store to memory. A locked instruction (CAS, or the MFENCE an
// XCHGQ store implies) runs only on an empty buffer. explore returns
// every final register file reachable over all interleavings — the
// outcomes of the program are decided, not sampled.

type tsoKind int

const (
	tsoStore tsoKind = iota // mem[loc] = val, through the buffer
	tsoLoad                 // reg = newest own buffered store to loc, else mem[loc]
	tsoCAS                  // locked: if mem[loc] == old { mem[loc] = val }; reg = old value seen
	tsoFence                // locked no-op: waits for the buffer to drain
)

type tsoOp struct {
	kind          tsoKind
	loc, val, old int
	reg           int
}

type tsoStoreEnt struct{ loc, val int }

type tsoState struct {
	pc   []int
	buf  [][]tsoStoreEnt
	mem  []int
	regs []int
}

func (s tsoState) clone() tsoState {
	c := tsoState{pc: append([]int(nil), s.pc...), mem: append([]int(nil), s.mem...), regs: append([]int(nil), s.regs...)}
	for _, b := range s.buf {
		c.buf = append(c.buf, append([]tsoStoreEnt(nil), b...))
	}
	return c
}

// explore runs prog (one instruction list per thread) from mem0 and
// returns every reachable final register file, keyed by its fmt.Sprint.
func explore(prog [][]tsoOp, mem0 []int, nregs int) map[string][]int {
	out, seen := map[string][]int{}, map[string]bool{}
	var walk func(s tsoState)
	walk = func(s tsoState) {
		key := fmt.Sprint(s)
		if seen[key] {
			return
		}
		seen[key] = true
		done := true
		for t, ops := range prog {
			if len(s.buf[t]) > 0 { // drain the oldest buffered store
				done = false
				n := s.clone()
				n.mem[n.buf[t][0].loc] = n.buf[t][0].val
				n.buf[t] = n.buf[t][1:]
				walk(n)
			}
			if s.pc[t] == len(ops) {
				continue
			}
			done = false
			op := ops[s.pc[t]]
			if (op.kind == tsoCAS || op.kind == tsoFence) && len(s.buf[t]) > 0 {
				continue // locked instructions wait for the buffer
			}
			n := s.clone()
			n.pc[t]++
			switch op.kind {
			case tsoStore:
				n.buf[t] = append(n.buf[t], tsoStoreEnt{op.loc, op.val})
			case tsoLoad:
				v := n.mem[op.loc]
				for _, e := range n.buf[t] {
					if e.loc == op.loc {
						v = e.val
					}
				}
				n.regs[op.reg] = v
			case tsoCAS:
				n.regs[op.reg] = n.mem[op.loc]
				if n.mem[op.loc] == op.old {
					n.mem[op.loc] = op.val
				}
			}
			walk(n)
		}
		if done {
			out[fmt.Sprint(s.regs)] = s.regs
		}
	}
	walk(tsoState{pc: make([]int, len(prog)), buf: make([][]tsoStoreEnt, len(prog)), mem: mem0, regs: make([]int, nregs)})
	return out
}

// TestTSOLitmus decides the three two-thread shapes StoreRelease's
// amd64 form (a plain MOVQ) stands on. Every changed call site is one
// of the first two; none is the third:
//
//   - message passing: obj.Model.WriteHeader and vm.Mutator.WritePayload
//     initialise an object only the allocating thread can name, and the
//     reference store that publishes it (WriteRef) comes later in
//     program order. A reader that sees the reference sees the header
//     and the payload, because a store buffer drains in order.
//   - log-then-store: the slot write ending (*LXR).WriteRef and
//     (*Immix).WriteRef follows the field-log capture, whose Busy and
//     Logged transitions are CASes (locked: they drain the buffer). A
//     concurrent tracer sees the captured old value or the new one, and
//     never the new one beside a log word that says "not captured yet".
//   - store buffering (Dekker): store x; load y ‖ store y; load x. Here
//     both loads CAN read the old values under TSO, and only a fence
//     between the store and the load forbids it. No later load of a
//     mutator pairs this way with any concurrent party (DESIGN.md,
//     "Stores that need no fence", enumerates them), which is why the
//     fence could go; the test requires the outcome to be reachable so
//     the model is known to be able to say no.
func TestTSOLitmus(t *testing.T) {
	st := func(loc, val int) tsoOp { return tsoOp{kind: tsoStore, loc: loc, val: val} }
	ld := func(loc, reg int) tsoOp { return tsoOp{kind: tsoLoad, loc: loc, reg: reg} }
	cas := func(loc, old, val, reg int) tsoOp { return tsoOp{kind: tsoCAS, loc: loc, old: old, val: val, reg: reg} }
	fence := tsoOp{kind: tsoFence}

	t.Run("message-passing", func(t *testing.T) {
		const hdr, pay, ref = 0, 1, 2
		got := explore([][]tsoOp{
			{st(hdr, 1), st(pay, 1), st(ref, 1)},
			{ld(ref, 0), ld(hdr, 1), ld(pay, 2)},
		}, []int{0, 0, 0}, 3)
		for _, bad := range []string{"[1 0 0]", "[1 0 1]", "[1 1 0]"} {
			if got[bad] != nil {
				t.Errorf("reader saw the reference and a zero header or payload: %s reachable", bad)
			}
		}
		if got["[0 0 0]"] == nil || got["[1 1 1]"] == nil || got["[0 1 1]"] == nil {
			t.Errorf("expected outcomes missing: %v", got)
		}
	})

	t.Run("log-then-store", func(t *testing.T) {
		const logw, slot = 0, 1
		const unlogged, busy, logged = 1, 2, 0
		const oldRef, newRef = 7, 9
		// r0: the log state the mutator's CAS found; r1: its capture;
		// r2: FinishLog's CAS; r3, r4: the tracer's slot then log word.
		got := explore([][]tsoOp{
			{cas(logw, unlogged, busy, 0), ld(slot, 1), cas(logw, busy, logged, 2), st(slot, newRef)},
			{ld(slot, 3), ld(logw, 4)},
		}, []int{unlogged, oldRef}, 5)
		sawOld, sawNew := false, false
		for o, r := range got {
			if r[1] != oldRef {
				t.Errorf("%s: captured %d, not the value the epoch started with", o, r[1])
			}
			switch r[3] {
			case oldRef:
				sawOld = true
			case newRef:
				sawNew = true
				if r[4] != logged {
					t.Errorf("%s: tracer saw the new value before its capture was published", o)
				}
			default:
				t.Errorf("%s: tracer saw neither the old nor the new value", o)
			}
		}
		if !sawOld || !sawNew {
			t.Errorf("tracer should be able to see both values: %v", got)
		}
	})

	t.Run("store-buffering", func(t *testing.T) {
		const x, y = 0, 1
		got := explore([][]tsoOp{
			{st(x, 1), ld(y, 0)},
			{st(y, 1), ld(x, 1)},
		}, []int{0, 0}, 2)
		if got["[0 0]"] == nil {
			t.Fatalf("both-stale outcome unreachable: the model has no store buffer (%v)", got)
		}
		fenced := explore([][]tsoOp{
			{st(x, 1), fence, ld(y, 0)},
			{st(y, 1), fence, ld(x, 1)},
		}, []int{0, 0}, 2)
		if fenced["[0 0]"] != nil {
			t.Fatalf("both-stale outcome reachable through fences: %v", fenced)
		}
	})
}
