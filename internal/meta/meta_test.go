package meta_test

import (
	"sync"
	"testing"
	"testing/quick"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

func arena() *mem.Arena { return mem.NewArena(4 << 20) }

func TestRCSaturatingCounts(t *testing.T) {
	rc := meta.NewRCTable(arena())
	a := mem.BlockStart(1)
	if rc.Get(a) != 0 {
		t.Fatal("fresh count not zero")
	}
	if old := rc.Inc(a); old != 0 {
		t.Fatalf("inc returned %d", old)
	}
	rc.Inc(a)
	rc.Inc(a) // now 3 = stuck
	if rc.Get(a) != meta.RCMax {
		t.Fatal("should be stuck at 3")
	}
	if old := rc.Inc(a); old != meta.RCMax {
		t.Fatal("stuck counts must not move on inc")
	}
	if old := rc.Dec(a); old != meta.RCMax {
		t.Fatal("stuck counts must not move on dec")
	}
	if rc.Get(a) != meta.RCMax {
		t.Fatal("stuck count changed")
	}
}

func TestRCDecFloorsAtZero(t *testing.T) {
	rc := meta.NewRCTable(arena())
	a := mem.BlockStart(1) + 5*mem.Granule
	if old := rc.Dec(a); old != 0 {
		t.Fatal("dec of zero must be a no-op")
	}
	if rc.Get(a) != 0 {
		t.Fatal("count went negative")
	}
}

func TestRCNeighbouringGranulesIndependent(t *testing.T) {
	rc := meta.NewRCTable(arena())
	base := mem.BlockStart(1)
	for i := 0; i < 64; i++ {
		rc.Inc(base + mem.Address(i*mem.Granule))
	}
	for i := 0; i < 64; i++ {
		if got := rc.Get(base + mem.Address(i*mem.Granule)); got != 1 {
			t.Fatalf("granule %d count %d", i, got)
		}
	}
	rc.Set(base+3*mem.Granule, 0)
	if rc.Get(base+2*mem.Granule) != 1 || rc.Get(base+4*mem.Granule) != 1 {
		t.Fatal("Set disturbed neighbours")
	}
}

func TestRCLineWordIsLineFreeness(t *testing.T) {
	rc := meta.NewRCTable(arena())
	line := 100
	if rc.LineWord(line) != 0 {
		t.Fatal("fresh line not free")
	}
	rc.Inc(mem.LineStart(line) + 7*mem.Granule)
	if rc.LineWord(line) == 0 {
		t.Fatal("line with a count must not be free")
	}
	rc.ClearRange(mem.LineStart(line), mem.LineStart(line+1))
	if rc.LineWord(line) != 0 {
		t.Fatal("cleared line must be free")
	}
}

func TestRCParallelIncsAreExact(t *testing.T) {
	rc := meta.NewRCTable(arena())
	// 16 granules share one word: hammer all of them concurrently and
	// check no update is lost (saturation at 3 makes exactly 3 visible).
	base := mem.LineStart(50)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				rc.Inc(base + mem.Address(i*mem.Granule))
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 16; i++ {
		if got := rc.Get(base + mem.Address(i*mem.Granule)); got != meta.RCMax {
			t.Fatalf("granule %d = %d, want stuck", i, got)
		}
	}
}

func TestBitTableTrySet(t *testing.T) {
	bt := meta.NewBitTable(arena(), mem.GranuleLog)
	a := mem.BlockStart(1)
	if bt.Get(a) {
		t.Fatal("fresh bit set")
	}
	if !bt.TrySet(a) {
		t.Fatal("first TrySet must win")
	}
	if bt.TrySet(a) {
		t.Fatal("second TrySet must lose")
	}
	bt.Clear(a)
	if !bt.TrySet(a) {
		t.Fatal("TrySet after Clear must win")
	}
}

func TestBitTableRanges(t *testing.T) {
	bt := meta.NewBitTable(arena(), mem.GranuleLog)
	start := mem.BlockStart(1)
	end := start + 40*mem.Granule
	for a := start - mem.Granule; a <= end; a += mem.Granule {
		bt.Set(a)
	}
	bt.ClearRange(start, end)
	for a := start; a < end; a += mem.Granule {
		if bt.Get(a) {
			t.Fatal("ClearRange missed a unit")
		}
	}
	if !bt.Get(start-mem.Granule) || !bt.Get(end) {
		t.Fatal("ClearRange overshot")
	}
}

func TestFieldLogTransitions(t *testing.T) {
	fl := meta.NewFieldLogTable(arena())
	slot := mem.BlockStart(1) + 24
	if fl.Get(slot) != meta.LogLogged {
		t.Fatal("fresh state must be Logged (zeroed)")
	}
	fl.SetUnlogged(slot)
	if fl.Get(slot) != meta.LogUnlogged {
		t.Fatal("SetUnlogged failed")
	}
	if !fl.TryBeginLog(slot) {
		t.Fatal("TryBeginLog must win on Unlogged")
	}
	if fl.Get(slot) != meta.LogBusy {
		t.Fatal("state must be Busy during capture")
	}
	if fl.TryBeginLog(slot) {
		t.Fatal("TryBeginLog must lose on Busy")
	}
	fl.FinishLog(slot)
	if fl.Get(slot) != meta.LogLogged {
		t.Fatal("FinishLog failed")
	}
}

func TestFieldLogNeighbours(t *testing.T) {
	fl := meta.NewFieldLogTable(arena())
	base := mem.BlockStart(1)
	fl.SetUnlogged(base + 8)
	if fl.Get(base) != meta.LogLogged || fl.Get(base+16) != meta.LogLogged {
		t.Fatal("neighbouring fields disturbed")
	}
	fl.ClearRange(base, base+64)
	if fl.Get(base+8) != meta.LogLogged {
		t.Fatal("ClearRange failed")
	}
}

func TestLineCounters(t *testing.T) {
	lc := meta.NewLineCounters(arena())
	if lc.Get(5) != 0 {
		t.Fatal("fresh counter non-zero")
	}
	lc.Bump(5)
	lc.Bump(5)
	if lc.Get(5) != 2 {
		t.Fatal("bump lost")
	}
	lc.BumpRange(mem.LineStart(10), mem.LineStart(12))
	if lc.Get(10) != 1 || lc.Get(11) != 1 || lc.Get(12) != 0 {
		t.Fatal("BumpRange wrong coverage")
	}
	lc.ResetAll()
	if lc.Get(5) != 0 || lc.Get(10) != 0 {
		t.Fatal("ResetAll failed")
	}
}

func TestRCQuickInvariants(t *testing.T) {
	rc := meta.NewRCTable(arena())
	// Property: after n incs and m decs (any interleaving is equivalent
	// for a single granule), count == min(3, clamp(n-m-ish)) — with
	// saturation the exact law is: count never exceeds 3, never drops
	// below 0, and sticks once it reaches 3.
	f := func(ops []bool, granule uint16) bool {
		a := mem.BlockStart(1) + mem.Address(int(granule)*mem.Granule)
		rc.ClearRange(a, a+mem.Granule)
		model := 0
		stuck := false
		for _, inc := range ops {
			if inc {
				rc.Inc(a)
				if !stuck {
					model++
					if model == 3 {
						stuck = true
					}
				}
			} else {
				rc.Dec(a)
				if !stuck && model > 0 {
					model--
				}
			}
		}
		return int(rc.Get(a)) == model
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
