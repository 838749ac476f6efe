package satb_test

import (
	"math/bits"
	"testing"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/satb"
)

// buildGraph creates a small object graph: root -> a -> b, c unreachable.
func buildGraph() (obj.Model, obj.Ref, obj.Ref, obj.Ref, obj.Ref) {
	om := obj.Model{A: mem.NewArena(4 << 20)}
	mk := func(addr mem.Address, refs int) obj.Ref {
		om.WriteHeader(addr, obj.Layout{NumRefs: refs, Size: obj.SizeFor(refs, 0)})
		return addr
	}
	root := mk(mem.BlockStart(1), 2)
	a := mk(mem.BlockStart(1)+64, 1)
	b := mk(mem.BlockStart(1)+128, 0)
	c := mk(mem.BlockStart(1)+192, 0)
	om.StoreSlot(root, 0, a)
	om.StoreSlot(a, 0, b)
	return om, root, a, b, c
}

func TestStepTracesClosure(t *testing.T) {
	om, root, a, b, c := buildGraph()
	tr := &satb.Tracer{OM: om, Marks: meta.NewBitTable(om.A, mem.GranuleLog)}
	tr.Begin()
	tr.Seed([]obj.Ref{root})
	if !tr.Active() {
		t.Fatal("not active after Begin")
	}
	for !tr.Step(4) {
	}
	for _, r := range []obj.Ref{root, a, b} {
		if !tr.Marks.Get(r) {
			t.Fatalf("reachable %x unmarked", r)
		}
	}
	if tr.Marks.Get(c) {
		t.Fatal("unreachable object marked")
	}
	marked := 0
	for i := 0; i < tr.Marks.Words(); i++ {
		marked += bits.OnesCount32(tr.Marks.Word(i))
	}
	if marked != 3 {
		t.Fatalf("%d mark bits set, want 3", marked)
	}
}

func TestFilterSkips(t *testing.T) {
	om, root, a, _, _ := buildGraph()
	tr := &satb.Tracer{
		OM:     om,
		Marks:  meta.NewBitTable(om.A, mem.GranuleLog),
		Filter: func(r obj.Ref) bool { return r != a },
	}
	tr.Begin()
	tr.Seed([]obj.Ref{root})
	for !tr.Step(4) {
	}
	if tr.Marks.Get(a) {
		t.Fatal("filtered object marked")
	}
}

func TestOnEdgeSeesEveryEdge(t *testing.T) {
	om, root, _, _, _ := buildGraph()
	edges := 0
	tr := &satb.Tracer{
		OM:     om,
		Marks:  meta.NewBitTable(om.A, mem.GranuleLog),
		OnEdge: func(slot mem.Address, v obj.Ref) { edges++ },
	}
	tr.Begin()
	tr.Seed([]obj.Ref{root})
	for !tr.Step(4) {
	}
	if edges != 2 { // root->a, a->b
		t.Fatalf("edges %d", edges)
	}
}

func TestDrainParallelEquivalent(t *testing.T) {
	om, root, a, b, _ := buildGraph()
	tr := &satb.Tracer{OM: om, Marks: meta.NewBitTable(om.A, mem.GranuleLog)}
	tr.Begin()
	tr.Seed([]obj.Ref{root})
	tr.DrainParallel(gcwork.NewPool(4))
	for _, r := range []obj.Ref{root, a, b} {
		if !tr.Marks.Get(r) {
			t.Fatalf("reachable %x unmarked", r)
		}
	}
	if tr.Pending() {
		t.Fatal("work left after drain")
	}
}

func TestFinishClearsState(t *testing.T) {
	om, root, _, _, _ := buildGraph()
	tr := &satb.Tracer{OM: om, Marks: meta.NewBitTable(om.A, mem.GranuleLog)}
	tr.Begin()
	tr.Seed([]obj.Ref{root})
	tr.Finish()
	if tr.Active() || tr.Pending() {
		t.Fatal("Finish left state")
	}
}
