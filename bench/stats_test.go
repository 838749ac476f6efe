package main

import "testing"

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want int64
	}{
		{n: 0, p: 50},
		{n: 20, p: 50},                        // 9 below the median
		{n: 21, p: 50, ok: true, want: 11},    // 10 on each side
		{n: 900, p: 99},                       // rank 891: 9 beyond
		{n: 1000, p: 99, ok: true, want: 990}, // rank 990: 10 beyond
		{n: 180, p: 95},                       // rank 171: 9 beyond
		{n: 200, p: 95, ok: true, want: 190},  // rank 190: 10 beyond
		{n: 100, p: 5},                        // the thin tail is the low one: 4 below
		{n: 300, p: 5, ok: true, want: 15},    // 14 below
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%v): ok=%v, want %v", tc.n, tc.p, ok, tc.ok)
		}
		if ok && got != tc.want {
			t.Errorf("percentile(n=%d, p=%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentileIsNeverTheMax(t *testing.T) {
	// The harness this replaces printed the max for any tail it had no
	// samples for; here that prints as null.
	s := seq(37)
	if f := pooled(s, 99.9, 1); f.ok {
		t.Fatalf("p99.9 of 37 samples reported %v; want null", f.v)
	}
	if f := pooled(s, 50, 1); !f.ok || f.v != 19 || f.n != 37 {
		t.Fatalf("p50 of 1..37 = %+v; want 19 with n=37", f)
	}
}

func TestWindowedReducesSubWindows(t *testing.T) {
	// Nine quiet sub-windows and one disturbed one: the pooled p99 is
	// dragged to the disturbance, the windowed one is not, whichever way
	// the sub-windows are reduced.
	var wins [][]int64
	var all []int64
	for k := 0; k < 10; k++ {
		w := make([]int64, 2000)
		for i := range w {
			w[i] = int64(100 + k)
			if k == 3 && i%5 == 0 {
				w[i] = 10000
			}
		}
		wins = append(wins, w)
		all = append(all, w...)
	}
	for _, tc := range []struct {
		how  pick
		want float64
	}{{middle, 105.5}, {lowest, 100}, {highest, 10000}} {
		if f := windowed(wins, 99, 1, tc.how); !f.ok || f.v != tc.want || f.n != 20000 {
			t.Errorf("windowed p99, pick %d = %+v; want %v over n=20000", tc.how, f, tc.want)
		}
	}
	if f := pooled(all, 99, 1); f.v != 10000 {
		t.Errorf("pooled p99 = %v; the test expects the disturbance to reach it", f.v)
	}
	// A sub-window too thin for the percentile is left out...
	wins[0] = wins[0][:50]
	if f := windowed(wins, 99, 1, lowest); !f.ok || f.v != 101 || f.n != 18000 {
		t.Errorf("windowed p99 with one thin sub-window = %+v; want 101 over n=18000", f)
	}
	// ...and when most are thin the pool is reported.
	for k := 1; k < 6; k++ {
		wins[k] = wins[k][:50]
	}
	if f := windowed(wins, 99, 1, lowest); !f.ok || f.n != 8300 {
		t.Errorf("windowed p99 with six thin sub-windows = %+v; want the pooled figure over n=8300", f)
	}
}
