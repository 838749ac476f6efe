package core

import (
	"testing"

	"lxr/internal/mem"
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
	if c.SurvivalThresholdBytes != 8<<20 || c.IncrementThreshold != 0 || c.CleanBlockThreshold != heapBlocks/16 {
		t.Fatalf("triggers: survival %d, increments %d, clean blocks %d",
			c.SurvivalThresholdBytes, c.IncrementThreshold, c.CleanBlockThreshold)
	}
	if c.NoConcurrentSATB || c.NoLazyDecrements || c.NoYoungEvac || c.EnableMatureEvac {
		t.Fatalf("zero config switched something: %+v", c)
	}

	// Wastage vote: with no trace completed yet the live-block
	// prediction is 0, so the vote fires exactly at 5% of the heap.
	const clean = 1 << 30
	if p.pacer.CycleDue(clean, heapBlocks*5/100-1) || !p.pacer.CycleDue(clean, (heapBlocks*5+99)/100) {
		t.Fatalf("wastage vote does not sit at 5%% of %d blocks", heapBlocks)
	}

	if defragOccupancy != 0.5 || maxTraceEpochs != 32 {
		t.Fatalf("defrag occupancy %v, trace epochs %d", defragOccupancy, maxTraceEpochs)
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
