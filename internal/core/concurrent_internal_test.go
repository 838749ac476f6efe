package core

import (
	"testing"

	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// TestConcurrentFailureDeliveredAtQuiesce: a panic parked on the
// concurrent driver's controller (as the shared controller does for a
// panicking quantum) must be re-raised by the next quiesce — i.e. on
// the pause path, whose mutator goroutine the workload guard protects —
// not swallowed and not left to kill the driver's own goroutine.
func TestConcurrentFailureDeliveredAtQuiesce(t *testing.T) {
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 4)
	defer v.Shutdown()

	c := p.conc
	c.ctl.InjectFailure("injected worker panic")

	defer func() {
		if r := recover(); r != "injected worker panic" {
			t.Fatalf("quiesce delivered %v, want the injected failure", r)
		}
		// The failure must be consumed: a second quiesce is clean.
		c.quiesce()
		c.release()
	}()
	c.quiesce()
	t.Fatal("quiesce did not re-raise the injected failure")
}

// TestDriverDeathScanHoldsItsLine: on the concurrent driver a mutator may
// take any line whose RC word reads zero, zero it and allocate over it.
// So while a lazy decrement's death scan still reads the dying object's
// slots, the object's line must not read free; it may read free once
// the scan is over. The dying object is alone on its line, so the line
// word is its count alone.
func TestDriverDeathScanHoldsItsLine(t *testing.T) {
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	p.conc.quiesce()
	defer p.conc.release()

	dying := mem.BlockStart(1)
	child := dying + mem.LineSize
	p.om.WriteHeader(dying, obj.Layout{NumRefs: 1, Size: obj.SizeFor(1, 0)})
	p.om.WriteHeader(child, obj.Layout{Size: obj.MinSize})
	p.om.A.StoreRef(p.om.SlotAddr(dying, 0), child)
	p.rc.Set(dying, 1)
	p.rc.Set(child, 1)

	var scanned []obj.Ref
	p.applyDec(true, dying, &decTally{}, func(c obj.Ref) {
		if w := p.rc.LineWord(dying.Line()); w == 0 {
			t.Errorf("the dying object's line reads free while its death scan is still running")
		}
		scanned = append(scanned, c)
	}, func(int) {})
	if len(scanned) != 1 || scanned[0] != child {
		t.Fatalf("death scan pushed %v, want [%#x]", scanned, uint64(child))
	}
	if w := p.rc.LineWord(dying.Line()); w != 0 {
		t.Fatalf("line word %#08x after the death, want 0", w)
	}
	if got := p.rc.Get(child); got != 1 {
		t.Fatalf("child count %d: the death scan must push, not apply, the recursive decrement", got)
	}
}
