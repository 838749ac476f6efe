package baselines

import "testing"

// The baselines' start decisions are fixed integer comparisons; these
// pin each one's boundary and operator.

func TestG1TriggerBoundaries(t *testing.T) {
	if g1YoungAtTarget(99, 100) {
		t.Fatal("young below target must not trigger")
	}
	if !g1YoungAtTarget(100, 100) {
		t.Fatal("young at target must trigger")
	}
	// Copy-reserve guard: yb=8 -> reserve 8+2+8=18.
	if reserve, short := g1ReserveShort(8, 18); !short || reserve != 18 {
		t.Fatalf("reserve guard must trigger at reserve 18: reserve %d, short %v", reserve, short)
	}
	if _, short := g1ReserveShort(8, 19); short {
		t.Fatal("reserve guard fired with budget to spare")
	}
	if _, short := g1ReserveShort(4, 0); short {
		t.Fatal("reserve guard must not fire under the 4-block floor")
	}
	// IHOP at the historical 45% (integer math: 1000*45/100 = 450).
	if ihop, due := g1MarkDue(450, 1000); due || ihop != 450 {
		t.Fatalf("IHOP fired at the threshold (historical check is strict >): ihop %d, due %v", ihop, due)
	}
	if _, due := g1MarkDue(451, 1000); !due {
		t.Fatal("IHOP must fire above 45%")
	}
}

// TestFreeFractionBoundary replays the historical 30%-free trigger.
func TestFreeFractionBoundary(t *testing.T) {
	if limit, due := freeFractionDue(700, 1000); due || limit != 700 {
		t.Fatalf("fired at the threshold (historical check is strict >): limit %d, due %v", limit, due)
	}
	if _, due := freeFractionDue(701, 1000); !due {
		t.Fatal("must fire above 70% occupancy")
	}
}

func TestHalfBudgetBoundary(t *testing.T) {
	if halfBudgetDue(499, 500) {
		t.Fatal("below the half budget must not trigger")
	}
	if !halfBudgetDue(500, 500) {
		t.Fatal("at the half budget must trigger")
	}
}
