package immix

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
)

// boolLines backs a LineMap with a plain bool slice (true = free),
// packed into the bitmap one line at a time.
type boolLines []bool

func (b boolLines) FreeLineBits(firstLine int, bm *[mem.LinesPerBlock / 32]uint32) {
	*bm = [mem.LinesPerBlock / 32]uint32{}
	for l := 0; l < mem.LinesPerBlock; l++ {
		if b[firstLine+l] {
			bm[l>>5] |= 1 << uint(l&31)
		}
	}
}

// refSpans is the per-line reference scan the word-at-a-time nextSpan
// replaced, under the exact line-marking rule: every maximal run of
// free lines is one span, returned in order.
func refSpans(free []bool) [][2]int {
	var spans [][2]int
	l := 0
	for l < mem.LinesPerBlock {
		for l < mem.LinesPerBlock && !free[l] {
			l++
		}
		if l >= mem.LinesPerBlock {
			break
		}
		start := l
		for l < mem.LinesPerBlock && free[l] {
			l++
		}
		spans = append(spans, [2]int{start, l})
	}
	return spans
}

func bitSpans(free []bool) [][2]int {
	var bm [mem.LinesPerBlock / 32]uint32
	boolLines(free).FreeLineBits(0, &bm)
	var spans [][2]int
	scan := 0
	for {
		start, end, ok := nextSpan(&bm, scan)
		if !ok {
			return spans
		}
		spans = append(spans, [2]int{start, end})
		scan = end
	}
}

// TestNextSpanMatchesReference checks the word-at-a-time scan yields
// exactly the span sequence of the per-line reference scan over random
// occupancy patterns, plus the structured edge cases.
func TestNextSpanMatchesReference(t *testing.T) {
	check := func(name string, free []bool) {
		ref, got := refSpans(free), bitSpans(free)
		if len(ref) != len(got) {
			t.Fatalf("%s: %d spans, want %d (got %v want %v)", name, len(got), len(ref), got, ref)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("%s: span %d = %v, want %v", name, i, got[i], ref[i])
			}
		}
	}

	all := func(v bool) []bool {
		f := make([]bool, mem.LinesPerBlock)
		for i := range f {
			f[i] = v
		}
		return f
	}
	check("all-free", all(true))
	check("all-used", all(false))
	for _, hole := range []int{0, 1, 31, 32, 33, 63, 64, 126, 127} {
		f := all(true)
		f[hole] = false
		check("one-used", f)
		g := all(false)
		g[hole] = true
		check("one-free", g)
	}
	// Alternating lines: every free line is a one-line span.
	alt := all(false)
	for i := 0; i < mem.LinesPerBlock; i += 2 {
		alt[i] = true
	}
	check("alternating", alt)

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		f := make([]bool, mem.LinesPerBlock)
		density := r.Intn(100)
		for i := range f {
			f[i] = r.Intn(100) < density
		}
		check("random", f)
	}

	// ScanSpans agrees with the reference totals too.
	for trial := 0; trial < 200; trial++ {
		f := make([]bool, mem.LinesPerBlock)
		for i := range f {
			f[i] = r.Intn(2) == 0
		}
		ref := refSpans(f)
		wantLines := 0
		for _, s := range ref {
			wantLines += s[1] - s[0]
		}
		spans, lines := ScanSpans(boolLines(f), 0)
		if spans != len(ref) || lines != wantLines {
			t.Fatalf("ScanSpans = (%d, %d), want (%d, %d)", spans, lines, len(ref), wantLines)
		}
	}
}
