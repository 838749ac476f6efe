package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// TestDecrementDecidesOnCount: a decrement reads its target's count
// before its header (DESIGN.md, "Metadata before memory"). Each target
// here has a poisoned header (size 0, which saneRef rejects), so a
// decrement that loads the header skips it and one that decides on the
// count does not. A stuck count, and a count of 2 on the driver, are
// applied with no header; a last decrement, a pause worker's 2 and a
// zero count load it and keep their skip. Under LXR_VERIFY every
// branch still checks the header, and a poisoned target panics instead
// of being skipped. A zero count is followed through a forwarding word
// to its copy, and two pause workers racing on one count of 2 kill the
// object exactly once.
func TestDecrementDecidesOnCount(t *testing.T) {
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	p.conc.quiesce()
	defer p.conc.release()

	// decrement runs one decrement through the driver's drain or the
	// pause's and reports what it did.
	decrement := func(onDriver bool, ref obj.Ref) (decs, skips int64, panicked string) {
		d0, s0 := v.Stats.Counter(CtrDecrements), v.Stats.Counter(CtrDefensiveSkip)
		defer func() {
			if r := recover(); r != nil {
				if wp, ok := r.(*gcwork.WorkerPanic); ok {
					r = wp.Value
				}
				panicked = fmt.Sprint(r)
			}
			decs, skips = v.Stats.Counter(CtrDecrements)-d0, v.Stats.Counter(CtrDefensiveSkip)-s0
		}()
		if onDriver {
			p.conc.pendingDecs = []mem.Address{ref}
			p.conc.drainDecs()
		} else {
			p.processDecWork([][]mem.Address{{ref}}, nil)
		}
		return
	}
	path := map[bool]string{true: "driver", false: "pause"}

	next := mem.BlockStart(2)
	for _, onDriver := range []bool{true, false} {
		for _, tc := range []struct {
			rc, wantRC    uint32
			decided       bool // applied without a header load
			onDriverAlone bool // ... only on the driver
		}{
			{rc: 3, wantRC: 3, decided: true},
			{rc: 2, wantRC: 1, decided: true, onDriverAlone: true},
			{rc: 1, wantRC: 1},
			{rc: 0, wantRC: 0},
		} {
			ref := next
			next += mem.LineSize
			p.rc.Set(ref, tc.rc) // header word 0, size 0: poisoned
			decided := tc.decided && (onDriver || !tc.onDriverAlone)
			want := tc.rc
			if decided {
				want = tc.wantRC
			}
			name := fmt.Sprintf("%s rc %d", path[onDriver], tc.rc)
			decs, skips, panicked := decrement(onDriver, ref)
			switch {
			case verifyEnabled:
				if !strings.Contains(panicked, "names no object") {
					t.Errorf("%s: under LXR_VERIFY a poisoned target must panic, got %q", name, panicked)
				}
				want = tc.rc
			case panicked != "":
				t.Errorf("%s: panicked: %s", name, panicked)
			case decided && (decs != 1 || skips != 0):
				t.Errorf("%s: %d decrements and %d skips, want 1 and 0: the count decides without the header", name, decs, skips)
			case !decided && (decs != 0 || skips != 1):
				t.Errorf("%s: %d decrements and %d skips, want 0 and 1: this decrement loads the header", name, decs, skips)
			}
			if got := p.rc.Get(ref); got != want {
				t.Errorf("%s: count %d after the decrement, want %d", name, got, want)
			}
		}

		// A zero count is a young evacuation's source: the decrement
		// follows its forwarding word and decrements the copy.
		src, dst := next, next+mem.LineSize
		next += 2 * mem.LineSize
		p.om.WriteHeader(src, obj.Layout{Size: obj.MinSize})
		p.om.WriteHeader(dst, obj.Layout{Size: obj.MinSize})
		p.rc.Set(dst, 2)
		if !p.om.TryClaimForwarding(src) {
			t.Fatal("claim on a fresh source failed")
		}
		p.om.InstallForwarding(src, dst)
		if decs, skips, panicked := decrement(onDriver, src); panicked != "" || decs != 1 || skips != 0 {
			t.Errorf("%s forwarded source: %d decrements, %d skips, panic %q; want 1, 0, none", path[onDriver], decs, skips, panicked)
		}
		if got, gotSrc := p.rc.Get(dst), p.rc.Get(src); got != 1 || gotSrc != 0 {
			t.Errorf("%s forwarded source: copy count %d and source count %d, want 1 and 0", path[onDriver], got, gotSrc)
		}
	}

	// Two pause workers decrement one count of 2: one takes it to 1,
	// the other to 0, and only that one runs the death.
	dying, child := next, next+mem.LineSize
	p.om.WriteHeader(dying, obj.Layout{NumRefs: 1, Size: obj.SizeFor(1, 0)})
	p.om.WriteHeader(child, obj.Layout{Size: obj.MinSize})
	p.om.A.StoreRef(p.om.SlotAddr(dying, 0), child)
	for round := 0; round < 200; round++ {
		p.rc.Set(dying, 2)
		var (
			start  sync.WaitGroup
			done   sync.WaitGroup
			tally  [2]decTally
			pushed [2][]obj.Ref
		)
		start.Add(1)
		for w := range 2 {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				p.applyDec(false, dying, &tally[w],
					func(c obj.Ref) { pushed[w] = append(pushed[w], c) }, func(int) {})
			}()
		}
		start.Done()
		done.Wait()
		deaths := tally[0].deaths + tally[1].deaths
		if n := len(pushed[0]) + len(pushed[1]); deaths != 1 || n != 1 || p.rc.Get(dying) != 0 {
			t.Fatalf("round %d: %d deaths, %d children pushed, count %d; want 1, 1, 0", round, deaths, n, p.rc.Get(dying))
		}
	}
}
