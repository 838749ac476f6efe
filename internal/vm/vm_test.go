package vm_test

import (
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/baselines"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

func newVM(t *testing.T) *vm.VM {
	t.Helper()
	v := vm.New(baselines.NewSemiSpace("SS", 16<<20, 2), 4)
	t.Cleanup(v.Shutdown)
	return v
}

func TestRegisterDeregister(t *testing.T) {
	v := newVM(t)
	m := v.RegisterMutator(4)
	if v.MutatorCount() != 1 {
		t.Fatal("count after register")
	}
	m.Deregister()
	if v.MutatorCount() != 0 {
		t.Fatal("count after deregister")
	}
}

func TestStopTheWorldWaitsForMutators(t *testing.T) {
	v := newVM(t)
	var inPause, sawStopped atomic.Bool
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m := v.RegisterMutator(1)
		defer m.Deregister()
		close(started)
		for i := 0; i < 100000; i++ {
			if inPause.Load() {
				sawStopped.Store(true) // would mean we ran during STW
			}
			m.Safepoint()
		}
	}()
	<-started
	v.RunCollection(nil, func() {
		v.StopTheWorld("test", func() {
			inPause.Store(true)
			time.Sleep(2 * time.Millisecond)
			inPause.Store(false)
		})
	})
	<-done
	if sawStopped.Load() {
		t.Fatal("mutator observed itself running during a pause")
	}
	if v.Stats.PauseCount() == 0 {
		t.Fatal("pause not recorded")
	}
}

func TestBlockedSectionsAllowSTW(t *testing.T) {
	v := newVM(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		m := v.RegisterMutator(1)
		defer m.Deregister()
		m.Blocked(func() {
			close(entered)
			<-release
		})
	}()
	<-entered
	// The mutator is blocked; a pause must proceed without it.
	doneSTW := make(chan struct{})
	go v.RunCollection(nil, func() {
		v.StopTheWorld("test", func() {})
		close(doneSTW)
	})
	select {
	case <-doneSTW:
	case <-time.After(5 * time.Second):
		t.Fatal("STW deadlocked on a blocked mutator")
	}
	close(release)
}

func TestCollectIfEpochDedups(t *testing.T) {
	v := newVM(t)
	e := v.GCEpoch()
	ran := 0
	v.CollectIfEpoch(nil, e, func() { ran++ })
	v.CollectIfEpoch(nil, e, func() { ran++ }) // stale epoch: skipped
	if ran != 1 {
		t.Fatalf("ran %d times", ran)
	}
	if v.GCEpoch() != e+2 {
		t.Fatalf("epoch %d", v.GCEpoch())
	}
}

func TestSnapshotAndFixRoots(t *testing.T) {
	v := newVM(t)
	m := v.RegisterMutator(3)
	defer m.Deregister()
	m.Roots[0] = 0x1000
	v.Globals[1] = 0x2000
	v.RunCollection(m, func() {
		v.StopTheWorld("test", func() {
			roots := v.SnapshotRoots(nil)
			if len(roots) != 2 {
				t.Errorf("snapshot %v", roots)
			}
			slots := v.RootSlots(nil)
			if len(slots) != 2 || slots[0] != &m.Roots[0] || slots[1] != &v.Globals[1] {
				t.Errorf("RootSlots %v, want the addresses of Roots[0] and Globals[1]", slots)
			}
			v.FixRoots(func(r obj.Ref) obj.Ref { return r + 16 })
		})
	})
	if m.Roots[0] != 0x1010 || v.Globals[1] != 0x2010 {
		t.Fatalf("FixRoots: %x %x", m.Roots[0], v.Globals[1])
	}
}
