package vm

// High-mutator-count rendezvous tests: these exercise the running-token
// protocol directly (they live inside package vm so they can assert on
// its state), with a stub plan so no collector logic runs.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/mem"
	"lxr/internal/obj"
)

// stubPlan is a minimal no-op Plan: enough to register mutators and run
// stop-the-world pauses without any collector machinery.
type stubPlan struct {
	arena *mem.Arena
	v     *VM
}

func newStubPlan() *stubPlan { return &stubPlan{arena: mem.NewArena(1 << 20)} }

func (p *stubPlan) Name() string             { return "stub" }
func (p *stubPlan) Arena() *mem.Arena        { return p.arena }
func (p *stubPlan) Boot(v *VM)               { p.v = v }
func (p *stubPlan) BindMutator(m *Mutator)   {}
func (p *stubPlan) UnbindMutator(m *Mutator) {}
func (p *stubPlan) Alloc(m *Mutator, l obj.Layout) obj.Ref {
	panic("stubPlan: Alloc not supported")
}
func (p *stubPlan) WriteRef(m *Mutator, src obj.Ref, i int, val obj.Ref) {
	panic("stubPlan: WriteRef not supported")
}
func (p *stubPlan) ReadRef(m *Mutator, src obj.Ref, i int) obj.Ref {
	panic("stubPlan: ReadRef not supported")
}
func (p *stubPlan) PollSafepoint(m *Mutator) {}
func (p *stubPlan) CollectNow(cause string)  {}
func (p *stubPlan) Shutdown()                {}

// runningTokens reads the running-token count. Only meaningful under a
// stopped world (or a quiescent VM).
func runningTokens(v *VM) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.running
}

// TestRendezvousStorm runs a 512-mutator register/park/deregister storm
// against a concurrent stream of stop-the-world pauses and asserts
// exact running-token conservation: every pause body observes zero
// tokens, every mutator finishes (no lost wakeups),
// and at quiescence the token count and registered set are empty.
func TestRendezvousStorm(t *testing.T) {
	const (
		nMuts   = 512
		nPauses = 40
	)
	v := New(newStubPlan(), 4)

	var (
		wg        sync.WaitGroup
		stopPause atomic.Bool
		pauses    atomic.Int32
	)

	// Stopper: stop-the-world in a tight loop while the storm runs.
	pauseDone := make(chan struct{})
	go func() {
		defer close(pauseDone)
		for i := 0; i < nPauses; i++ {
			v.RunCollection(nil, func() {
				v.StopTheWorld("storm", func() {
					if got := runningTokens(v); got != 0 {
						t.Errorf("pause %d: %d running tokens during pause body", i, got)
					}
					// The registered set must be consistent: every
					// mutator the walk visits is a member at its index.
					v.EachMutator(func(m *Mutator) {
						if m.idx >= len(v.muts) || v.muts[m.idx] != m {
							t.Errorf("pause %d: mutator %d not registered at its index", i, m.ID)
						}
					})
					pauses.Add(1)
				})
			})
			if stopPause.Load() {
				return
			}
		}
	}()

	for g := 0; g < nMuts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			m := v.RegisterMutator(2)
			for it := 0; it < 50; it++ {
				switch rng.Intn(3) {
				case 0:
					m.Safepoint()
				case 1:
					m.PollPark()
				case 2:
					m.BlockedSleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
			}
			m.Deregister()
		}(g)
	}

	wg.Wait()
	stopPause.Store(true)
	// One final pause so the stopper never blocks forever waiting on a
	// token, then wait for it.
	<-pauseDone

	if got := runningTokens(v); got != 0 {
		t.Fatalf("quiescent token count = %d, want 0", got)
	}
	if got := v.MutatorCount(); got != 0 {
		t.Fatalf("quiescent MutatorCount = %d, want 0", got)
	}
	if pauses.Load() == 0 {
		t.Fatal("stopper never completed a pause")
	}
}

// TestStormSurvivesConcurrentStops runs registration churn against
// back-to-back stop-the-worlds and asserts no mutator is lost: every
// pause body sees zero tokens, the registered set empties, and all
// goroutines terminate.
func TestStormSurvivesConcurrentStops(t *testing.T) {
	const nMuts = 256
	v := New(newStubPlan(), 0)

	var wg sync.WaitGroup
	for g := 0; g < nMuts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				m := v.RegisterMutator(1)
				for it := 0; it < 20; it++ {
					m.PollPark()
				}
				m.Deregister()
			}
		}(g)
	}
	stop := make(chan struct{})
	var pauseWG sync.WaitGroup
	pauseWG.Add(1)
	go func() {
		defer pauseWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v.RunCollection(nil, func() {
				v.StopTheWorld("churn", func() {
					if got := runningTokens(v); got != 0 {
						t.Errorf("%d running tokens during pause body", got)
					}
				})
			})
		}
	}()
	wg.Wait()
	close(stop)
	pauseWG.Wait()
	if got := v.MutatorCount(); got != 0 {
		t.Fatalf("MutatorCount = %d after storm, want 0", got)
	}
}

// TestPausePanicRestartsParkedWorld parks many mutators, panics inside
// the pause body, and asserts the world restarts: every parked mutator
// resumes and deregisters (the deferred restart must broadcast the
// start condvar).
func TestPausePanicRestartsParkedWorld(t *testing.T) {
	const nMuts = 128
	v := New(newStubPlan(), 0)

	var wg sync.WaitGroup
	started := make(chan struct{}, nMuts)
	for g := 0; g < nMuts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := v.RegisterMutator(1)
			started <- struct{}{}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				m.PollPark()
				if v.GCEpoch() > 0 {
					break
				}
			}
			m.Deregister()
		}()
	}
	for g := 0; g < nMuts; g++ {
		<-started
	}

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("pause body panic did not propagate")
			}
		}()
		v.RunCollection(nil, func() {
			v.StopTheWorld("boom", func() { panic("pause boom") })
		})
	}()
	// RunCollection's epoch bump is skipped when f panics past it, so
	// bump it here to release the spinners.
	v.gcEpoch.Add(1)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("mutators still parked after pause-body panic: world not restarted")
	}
	if got := runningTokens(v); got != 0 {
		t.Fatalf("token count = %d after restart, want 0", got)
	}
}

// TestConcSignalsMonotoneUnderChurn samples ConcSignals busy time while
// mutators register, run briefly and deregister, asserting every
// windowed delta is non-negative: registration and retirement may never
// make cumulative busy time go backwards.
func TestConcSignalsMonotoneUnderChurn(t *testing.T) {
	v := New(newStubPlan(), 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := v.RegisterMutator(1)
				for i := 0; i < 10; i++ {
					m.PollPark()
				}
				m.Deregister()
			}
		}(g)
	}

	prev := time.Duration(-1)
	for i := 0; i < 2000; i++ {
		busy, _, _, _ := v.ConcSignals()
		if busy < prev {
			t.Fatalf("sample %d: busy went backwards %v -> %v", i, prev, busy)
		}
		prev = busy
	}
	close(stop)
	wg.Wait()
}
