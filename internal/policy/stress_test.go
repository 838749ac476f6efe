package policy_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lxr/internal/policy"
)

// TestStressPacerConcurrency interleaves everything that touches a
// pacer in a real run — safepoint-path decisions from many mutators,
// controller-goroutine cycle checks, pause-coordinator observations
// and trace snapshots — under -race. The decision paths
// must be non-blocking and the archive internally consistent.
func TestStressPacerConcurrency(t *testing.T) {
	pacers := []policy.Pacer{
		policy.NewRCPacer(policy.RCPacerConfig{
			HeapBytes: 1 << 28, SurvivalThresholdBytes: 1 << 20,
			HeapBlocks: 1000, CleanBlockThreshold: 16,
		}),
		policy.NewG1Pacer(policy.G1PacerConfig{
			BudgetBlocks: 1000, YoungTargetBlocks: 100,
		}),
		policy.NewFreeFractionPacer(policy.FreeFractionPacerConfig{
			BudgetBlocks: 1000,
		}),
		policy.NewHeapFullPacer("SemiSpace", 500),
	}
	const dur = 100 * time.Millisecond
	for _, p := range pacers {
		p := p
		var stop atomic.Bool
		var wg sync.WaitGroup
		run := func(f func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					f(i)
				}
			}()
		}
		// Mutator safepoint paths.
		for m := 0; m < 4; m++ {
			run(func(i int) {
				p.ShouldCollect(policy.Signals{
					AllocBytes: int64(i % (1 << 24)), YoungBlocks: i % 200,
					HeapBlocks: i % 1000, BudgetRemaining: 1000 - i%1000,
				})
			})
		}
		// Controller-goroutine cycle trigger.
		run(func(i int) {
			p.ShouldStartCycle(policy.Signals{
				HeapBlocks: i % 1200, BudgetBlocks: 1000, CleanYielded: i % 64,
			})
		})
		// Pause coordinator: epoch feedback and cycle boundaries (LXR's
		// pacer is the only one with predictors to feed).
		if rc, ok := p.(*policy.RCPacer); ok {
			run(func(i int) {
				rc.ObserveEpoch(policy.EpochStats{
					AllocBytes: 1 << 20, SurvivedBytes: int64(i%10) << 16,
				})
				rc.ObserveCycleEnd(policy.Signals{HeapBlocks: (i + 100) % 1100, BudgetBlocks: 1000})
			})
		}
		// Trace snapshots while everything churns.
		run(func(int) {
			tr := p.Trace()
			var repeats int64
			for _, d := range tr.Decisions {
				repeats += d.Repeats
			}
			if archived := int64(len(tr.Decisions)) + repeats + tr.Dropped; archived > tr.Fired {
				// More archived than fired can never happen; fewer can
				// (fires land between the counter read and the archive).
				stop.Store(true)
				t.Errorf("%s: archived %d > fired %d", tr.Collector, archived, tr.Fired)
			}
			time.Sleep(time.Millisecond)
		})
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
	}
}
