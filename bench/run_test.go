package main

import (
	"testing"
	"time"
)

// TestEveryWorkloadEndToEnd runs a short window of each workload the way
// the benchmark driver does and checks the contract: nothing fails, the
// heap agrees with the shadow model, every end-to-end metric is a number.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for 2 s")
	}
	for _, s := range specs {
		res, err := runEndToEnd(s, 11, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", s.name, res.Correct, res.Failed, res.Attempted, res.failures)
		}
		for _, d := range endToEndDefs {
			v, ok := res.Metrics[d.name]
			if !ok || v.Value == nil || *v.Value <= 0 || v.Unit != d.unit || v.N == 0 {
				t.Errorf("%s: %s = %+v; want a positive number with unit %s and a sample count", s.name, d.name, v, d.unit)
			}
		}
	}
}

// TestTracedLedger runs one traced window and checks the ledger: every
// per-layer metric is reported, the trace lost nothing and passes the
// repo's validator (writeChrome refuses to write one that does not), and
// the pause's phases account for the pause.
func TestTracedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload for 4 s")
	}
	res, err := runTraced(specByName("batch-mutate"), 11, 4*time.Second, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d %v", res.Correct, res.Failed, res.failures)
	}
	for _, d := range perLayerDefs {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("%s missing from the ledger", d.name)
		}
	}
	get := func(name string) float64 {
		v := res.Metrics[name].Value
		if v == nil {
			t.Fatalf("%s is null", name)
		}
		return *v
	}
	if lost := get("trace.lost"); lost != 0 {
		t.Errorf("trace.lost = %v; raise traceShardCap", lost)
	}
	if r := get("core.phase_sum_over_pause"); r < 0.95 || r > 1.05 {
		t.Errorf("phases sum to %.3f of the pauses; want 0.95-1.05", r)
	}
	if get("core.barrier_slow_per_kstore") < 50 {
		t.Errorf("batch-mutate barely reaches the barrier's slow path: %v per 1000 stores", get("core.barrier_slow_per_kstore"))
	}
	if get("bench.check_failures") != 0 {
		t.Errorf("heap check failed %v times", get("bench.check_failures"))
	}
}
