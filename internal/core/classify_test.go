package core

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

// classifyBlockRef is the per-line reference loop the word-at-a-time
// classification replaced: count free and used lines exhaustively.
func classifyBlockRef(rc *meta.RCTable, idx int) blockClass {
	base := idx * mem.LinesPerBlock
	free, used := 0, 0
	for l := base; l < base+mem.LinesPerBlock; l++ {
		if rc.LineFree(l) {
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

// TestClassifyBlockMatchesPerLineReference drives random RC patterns —
// from all-dead through sparse to fully live, plus single-line edge
// cases at the block boundaries — through both classifications.
func TestClassifyBlockMatchesPerLineReference(t *testing.T) {
	a := mem.NewArena(16 * mem.BlockSize)
	rc := meta.NewRCTable(a)
	p := &LXR{rc: rc}
	rng := rand.New(rand.NewSource(7))
	densities := []float64{0, 0.02, 0.1, 0.5, 0.95, 1}
	for trial := 0; trial < 4000; trial++ {
		idx := 1 + rng.Intn(a.Blocks()-1)
		rc.ClearRange(mem.BlockStart(idx), mem.BlockStart(idx+1))
		switch trial % 8 {
		case 0: // exactly one counted line, at a random position
			l := rng.Intn(mem.LinesPerBlock)
			g := rng.Intn(mem.GranulesPerLine)
			rc.Set(mem.LineStart(idx*mem.LinesPerBlock+l)+mem.Address(g*mem.Granule), 1+uint32(rng.Intn(3)))
		case 1: // only the first and last lines counted
			rc.Set(mem.BlockStart(idx), 1)
			rc.Set(mem.LineStart((idx+1)*mem.LinesPerBlock-1), 2)
		default: // random density over all lines
			d := densities[rng.Intn(len(densities))]
			for l := 0; l < mem.LinesPerBlock; l++ {
				if rng.Float64() < d {
					g := rng.Intn(mem.GranulesPerLine)
					rc.Set(mem.LineStart(idx*mem.LinesPerBlock+l)+mem.Address(g*mem.Granule), 1+uint32(rng.Intn(3)))
				}
			}
		}
		if got, want := p.classifyBlock(idx), classifyBlockRef(rc, idx); got != want {
			t.Fatalf("trial %d block %d: classifyBlock=%v reference=%v", trial, idx, got, want)
		}
	}
}
