package core

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

// classifyBlockRef is the per-line reference loop the word-at-a-time
// classification replaced: count free and used lines exhaustively. A
// line is free when it holds no count and no cover entry.
func classifyBlockRef(rc *meta.RCTable, idx int) blockClass {
	base := idx * mem.LinesPerBlock
	free, used := 0, 0
	for l := base; l < base+mem.LinesPerBlock; l++ {
		if rc.LineWord(l) == 0 && !rc.Covered(l) {
			free++
		} else {
			used++
		}
	}
	switch {
	case used == 0:
		return blockEmpty
	case free > 0:
		return blockPartial
	default:
		return blockFullLive
	}
}

// TestClassifyBlockMatchesPerLineReference drives random patterns of
// counts and cover entries — from all-dead through sparse to fully
// live, plus single-line edge cases at the block boundaries — through
// both classifications.
func TestClassifyBlockMatchesPerLineReference(t *testing.T) {
	a := mem.NewArena(16 * mem.BlockSize)
	rc := meta.NewRCTable(a)
	p := &LXR{rc: rc}
	rng := rand.New(rand.NewSource(7))
	densities := []float64{0, 0.02, 0.1, 0.5, 0.95, 1}
	// cover sets the entry of the line at a: a 32-byte object on the
	// previous line's last granule reaches into it.
	cover := func(a mem.Address) { rc.Cover(a-mem.Granule, 2*mem.Granule, 1) }
	for trial := 0; trial < 4000; trial++ {
		idx := 1 + rng.Intn(a.Blocks()-1)
		rc.ClearRange(mem.BlockStart(idx), mem.BlockStart(idx+1))
		rc.Cover(mem.BlockStart(idx), mem.BlockSize, 0)
		switch trial % 8 {
		case 0: // exactly one counted line, at a random position
			l := rng.Intn(mem.LinesPerBlock)
			g := rng.Intn(mem.GranulesPerLine)
			rc.Set(mem.LineStart(idx*mem.LinesPerBlock+l)+mem.Address(g*mem.Granule), 1+uint32(rng.Intn(3)))
		case 1: // only the first and last lines counted
			rc.Set(mem.BlockStart(idx), 1)
			rc.Set(mem.LineStart((idx+1)*mem.LinesPerBlock-1), 2)
		case 2: // exactly one covered line, at a random position
			cover(mem.LineStart(idx*mem.LinesPerBlock + 1 + rng.Intn(mem.LinesPerBlock-1)))
		default: // random density over all lines
			d := densities[rng.Intn(len(densities))]
			for l := 0; l < mem.LinesPerBlock; l++ {
				switch line := idx*mem.LinesPerBlock + l; {
				case rng.Float64() >= d:
				case l > 0 && rng.Intn(3) == 0: // a line some object reaches into
					cover(mem.LineStart(line))
				default:
					g := rng.Intn(mem.GranulesPerLine)
					rc.Set(mem.LineStart(line)+mem.Address(g*mem.Granule), 1+uint32(rng.Intn(3)))
				}
			}
		}
		if got, want := p.classifyBlock(idx), classifyBlockRef(rc, idx); got != want {
			t.Fatalf("trial %d block %d: classifyBlock=%v reference=%v", trial, idx, got, want)
		}
	}
}
