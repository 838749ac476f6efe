package core

import (
	"testing"

	"lxr/internal/mem"
	"lxr/internal/policy"
)

// TestZeroConfigDefaults pins the paper's fixed configuration (§4) that
// a zero Config selects, including the values that are constants rather
// than fields: 5% SATB wastage vote, evacuation candidates under half
// occupancy capped at a sixteenth of the heap (minimum 4 blocks), at
// most 32 RC epochs per trace, one whole-heap remembered set.
func TestZeroConfigDefaults(t *testing.T) {
	p := New(Config{})
	defer p.pool.Stop()
	c := p.cfg
	heapBlocks := (64 << 20) / mem.BlockSize
	if c.HeapBytes != 64<<20 || c.GCThreads != 4 || c.ConcWorkers != 2 {
		t.Fatalf("heap %d, threads %d, borrow width %d", c.HeapBytes, c.GCThreads, c.ConcWorkers)
	}
	if c.SurvivalThresholdBytes != 8<<20 {
		t.Fatalf("survival trigger at %d bytes", c.SurvivalThresholdBytes)
	}
	if c.NoConcurrentSATB || c.NoLazyDecrements || c.EnableMatureEvac {
		t.Fatalf("zero config switched something: %+v", c)
	}

	if policy.WastageFraction != 0.05 || policy.MaxTraceEpochs != 32 || defragOccupancy != 0.5 {
		t.Fatalf("wastage vote at %v of the heap, %d trace epochs, defrag occupancy %v",
			policy.WastageFraction, policy.MaxTraceEpochs, defragOccupancy)
	}
	for heap, want := range map[int]int{64 << 20: heapBlocks / 16, 1 << 20: 4} {
		if got := defragMaxBlocks(heap); got != want {
			t.Fatalf("defrag cap at %d MB: %d blocks, want %d", heap>>20, got, want)
		}
	}

	// Whole-heap remembered set: entries recorded for slots in distant
	// blocks land in, and drain from, the one set.
	p.rem.Record(mem.BlockStart(1))
	p.rem.Record(mem.BlockStart(heapBlocks - 1))
	if n := len(p.rem.TakeAll()); n != 2 || p.rem.Len() != 0 {
		t.Fatalf("remembered set drained %d of 2 entries, %d left", n, p.rem.Len())
	}
}
