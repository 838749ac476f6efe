package obj_test

import (
	"testing"
	"testing/quick"

	"lxr/internal/mem"
	"lxr/internal/obj"
)

func model() obj.Model { return obj.Model{A: mem.NewArena(4 << 20)} }

func TestHeaderRoundTrip(t *testing.T) {
	m := model()
	ref := mem.BlockStart(1)
	l := obj.Layout{NumRefs: 3, Size: obj.SizeFor(3, 40), TypeID: 7}
	m.WriteHeader(ref, l)
	if m.Size(ref) != l.Size {
		t.Fatalf("size %d != %d", m.Size(ref), l.Size)
	}
	if m.NumRefs(ref) != 3 {
		t.Fatalf("refs %d", m.NumRefs(ref))
	}
	if m.TypeID(ref) != 7 {
		t.Fatalf("type %d", m.TypeID(ref))
	}
	if m.IsLarge(ref) {
		t.Fatal("not large")
	}
	if m.IsForwarded(ref) {
		t.Fatal("fresh object forwarded")
	}
}

func TestSizeForAlignsToGranule(t *testing.T) {
	f := func(refs uint8, payload uint16) bool {
		s := obj.SizeFor(int(refs), int(payload))
		return s%mem.Granule == 0 && s >= obj.HeaderBytes+int(refs)*8+int(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotsAndPayloadDisjoint(t *testing.T) {
	m := model()
	ref := mem.BlockStart(1)
	m.WriteHeader(ref, obj.Layout{NumRefs: 2, Size: obj.SizeFor(2, 16)})
	m.StoreSlot(ref, 0, 0x100)
	m.StoreSlot(ref, 1, 0x200)
	if m.PayloadAddr(ref) != m.SlotAddr(ref, 2) {
		t.Fatal("payload must start after last slot")
	}
	if m.LoadSlot(ref, 0) != 0x100 || m.LoadSlot(ref, 1) != 0x200 {
		t.Fatal("slot round trip failed")
	}
	if pb := m.Size(ref) - obj.HeaderBytes - m.NumRefs(ref)*mem.WordSize; pb != 16 {
		t.Fatalf("payload bytes %d", pb)
	}
}

func TestEachSlot(t *testing.T) {
	m := model()
	ref := mem.BlockStart(1)
	m.WriteHeader(ref, obj.Layout{NumRefs: 4, Size: obj.SizeFor(4, 0)})
	for i := 0; i < 4; i++ {
		m.StoreSlot(ref, i, mem.Address(0x1000*(i+1)))
	}
	var got []obj.Ref
	m.EachSlot(ref, func(i int, slot mem.Address, v obj.Ref) {
		if slot != m.SlotAddr(ref, i) {
			t.Fatal("slot address mismatch")
		}
		got = append(got, v)
	})
	if len(got) != 4 || got[2] != 0x3000 {
		t.Fatalf("EachSlot got %v", got)
	}
}

func TestForwardingProtocol(t *testing.T) {
	m := model()
	ref := mem.BlockStart(1)
	dst := mem.BlockStart(2)
	m.WriteHeader(ref, obj.Layout{NumRefs: 0, Size: 32})
	if !m.TryClaimForwarding(ref) {
		t.Fatal("first claim must win")
	}
	if m.TryClaimForwarding(ref) {
		t.Fatal("second claim must lose")
	}
	m.InstallForwarding(ref, dst)
	if !m.IsForwarded(ref) {
		t.Fatal("not forwarded after install")
	}
	if m.ForwardingPointer(ref) != dst {
		t.Fatal("wrong forwarding pointer")
	}
	if m.Resolve(ref) != dst {
		t.Fatal("Resolve must follow forwarding")
	}
	if m.SpinForwarded(ref) != dst {
		t.Fatal("SpinForwarded must return the copy")
	}
}

func TestAbandonForwarding(t *testing.T) {
	m := model()
	ref := mem.BlockStart(1)
	m.WriteHeader(ref, obj.Layout{NumRefs: 0, Size: 32})
	if !m.TryClaimForwarding(ref) {
		t.Fatal("claim failed")
	}
	m.AbandonForwarding(ref)
	if m.IsForwarded(ref) {
		t.Fatal("abandoned object must not be forwarded")
	}
	if m.Resolve(ref) != ref {
		t.Fatal("Resolve of unforwarded must be identity")
	}
	if !m.TryClaimForwarding(ref) {
		t.Fatal("re-claim after abandon must succeed")
	}
}

func TestCopyToPreservesContentClearsForwarding(t *testing.T) {
	m := model()
	ref := mem.BlockStart(1)
	dst := mem.BlockStart(2)
	m.WriteHeader(ref, obj.Layout{NumRefs: 1, Size: obj.SizeFor(1, 8)})
	m.StoreSlot(ref, 0, 0xabc0)
	m.A.Store(m.PayloadAddr(ref), 99)
	m.TryClaimForwarding(ref) // busy state must not be copied
	m.CopyTo(ref, dst)
	if m.LoadSlot(dst, 0) != 0xabc0 {
		t.Fatal("slot not copied")
	}
	if m.A.Load(m.PayloadAddr(dst)) != 99 {
		t.Fatal("payload not copied")
	}
	if m.ForwardingWord(dst) != 0 {
		t.Fatal("copy must start unforwarded")
	}
}

func TestStraddles(t *testing.T) {
	m := model()
	straddles := func(r obj.Ref) bool { return (m.End(r) - 1).Line() != r.Line() }
	base := mem.BlockStart(1)
	small := base
	m.WriteHeader(small, obj.Layout{Size: 32})
	if straddles(small) {
		t.Fatal("32B at line start must not straddle")
	}
	atEnd := base + (mem.LineSize - 16)
	m.WriteHeader(atEnd, obj.Layout{Size: 32})
	if !straddles(atEnd) {
		t.Fatal("object crossing a line boundary must straddle")
	}
}

func TestLayoutValidate(t *testing.T) {
	if (obj.Layout{NumRefs: -1, Size: 32}).Validate() == nil {
		t.Fatal("negative refs accepted")
	}
	if (obj.Layout{NumRefs: 0, Size: 8}).Validate() == nil {
		t.Fatal("sub-minimum size accepted")
	}
	if (obj.Layout{NumRefs: 4, Size: 16}).Validate() == nil {
		t.Fatal("size too small for refs accepted")
	}
	if (obj.Layout{NumRefs: 2, Size: obj.SizeFor(2, 0)}).Validate() != nil {
		t.Fatal("valid layout rejected")
	}
}
