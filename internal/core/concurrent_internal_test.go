package core

import (
	"testing"

	"lxr/internal/vm"
)

// TestConcurrentFailureDeliveredAtQuiesce: a panic parked on the
// concurrent driver's controller (as the shared controller does for
// loaned-worker panics) must be re-raised by the next quiesce — i.e. on
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
