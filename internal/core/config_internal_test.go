package core

import (
	"reflect"
	"testing"

	"lxr/internal/policy"
)

// TestZeroConfigDefaults pins the paper's fixed configuration (§4) that
// a zero Config selects, including the values that are constants rather
// than fields: 5% SATB wastage vote and at most 32 RC epochs per trace.
// It also pins the number of settable fields, so a new knob needs an
// edit here.
func TestZeroConfigDefaults(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 6 {
		t.Fatalf("Config has %d fields, want 6", n)
	}
	p := New(Config{})
	defer p.pool.Stop()
	c := p.cfg
	if c.HeapBytes != 64<<20 || c.GCThreads != 4 {
		t.Fatalf("heap %d, threads %d", c.HeapBytes, c.GCThreads)
	}
	if c.SurvivalThresholdBytes != 8<<20 {
		t.Fatalf("survival trigger at %d bytes", c.SurvivalThresholdBytes)
	}
	if c.NoConcurrentSATB || c.NoLazyDecrements {
		t.Fatalf("zero config switched something: %+v", c)
	}
	if policy.WastageFraction != 0.05 || policy.MaxTraceEpochs != 32 {
		t.Fatalf("wastage vote at %v of the heap, %d trace epochs",
			policy.WastageFraction, policy.MaxTraceEpochs)
	}
}
