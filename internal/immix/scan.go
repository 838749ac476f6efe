package immix

import (
	"lxr/internal/mem"
)

// ScanSpans walks the free-line spans of the block whose first global
// line is firstLine, applying the allocator's conservative recycling
// rule (skip the first free line after a used line), and returns the
// number of spans and bumpable free lines a recycled-block allocator
// would obtain. It snapshots the block's free-line bitmap once and
// walks it with the same word-at-a-time nextSpan the allocator uses —
// it is the entry point of the line-scan microbenchmark
// (internal/fastbench) and the property test against the per-line
// reference scan.
func ScanSpans(lines LineMap, firstLine int) (spans, freeLines int) {
	var bm [mem.LinesPerBlock / 32]uint32
	lines.FreeLineBits(firstLine, &bm)
	scan := 0
	for {
		start, end, ok := nextSpan(&bm, scan)
		if !ok {
			return spans, freeLines
		}
		spans++
		freeLines += end - start
		scan = end
	}
}
