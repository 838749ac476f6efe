package remset_test

import (
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/remset"
)

func setup() (*meta.LineCounters, *remset.Table) {
	a := mem.NewArena(4 << 20)
	lc := meta.NewLineCounters(a)
	return lc, remset.NewTable(lc)
}

func TestRecordTake(t *testing.T) {
	_, rs := setup()
	slot := mem.BlockStart(1) + 24
	rs.Record(slot)
	rs.Record(slot + 8)
	if rs.Len() != 2 {
		t.Fatalf("len %d", rs.Len())
	}
	es := rs.TakeAll()
	if len(es) != 2 || es[0].Slot != slot {
		t.Fatalf("entries %v", es)
	}
	if rs.Len() != 0 {
		t.Fatal("TakeAll did not clear")
	}
}

func TestReuseCounterInvalidation(t *testing.T) {
	lc, rs := setup()
	slot := mem.BlockStart(1) + 40
	rs.Record(slot)
	e := rs.TakeAll()[0]
	if !rs.Valid(e) {
		t.Fatal("fresh entry must be valid")
	}
	lc.Bump(slot.Line()) // the line was reclaimed and reused
	if rs.Valid(e) {
		t.Fatal("entry must be invalid after line reuse")
	}
}
