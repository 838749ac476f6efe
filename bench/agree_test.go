package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeResults(t *testing.T, dir, name string, scale map[string]float64) string {
	t.Helper()
	f := resultFile{Seed: 1, Seconds: 20, Workloads: map[string]map[string]*result{}}
	for _, s := range specs {
		res := &result{Correct: true, Attempted: 1, Metrics: map[string]value{}}
		for _, d := range endToEndDefs {
			v := 10.0
			if k, ok := scale[s.name+"/"+d.name]; ok {
				v *= k
			}
			res.Metrics[d.name] = value{Value: &v, Unit: d.unit, N: 100}
		}
		f.Workloads[s.name] = map[string]*result{"end_to_end": res}
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join("..", "BENCHMARK.json")
	a := writeResults(t, dir, "a.json", nil)
	// 4 % off is inside every bound; 30 % off is outside every bound, in
	// either direction.
	near := writeResults(t, dir, "near.json", map[string]float64{"serve-aging/req_p50_ms": 1.04})
	far := writeResults(t, dir, "far.json", map[string]float64{"batch-mutate/throughput_mb_s": 0.7})

	var out bytes.Buffer
	if code := agreeFiles(&out, manifest, a, near); code != 0 {
		t.Errorf("4%% apart: exit %d\n%s", code, out.String())
	}
	// The manifest lists two of the four workloads in the result files.
	rows := strings.Count(out.String(), "agree\n")
	if want := 2 * len(endToEndDefs); rows != want {
		t.Errorf("%d rows, want one per listed (workload, metric) = %d\n%s", rows, want, out.String())
	}
	if !strings.Contains(out.String(), "1.040 (base A)") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}

	out.Reset()
	if code := agreeFiles(&out, manifest, a, far); code != 1 {
		t.Errorf("30%% apart: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("no DISAGREE row:\n%s", out.String())
	}
	if code := agreeFiles(&out, manifest, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric tables in
// metrics.go from drifting apart.
func TestManifestMatchesCode(t *testing.T) {
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &m); err != nil {
		t.Fatal(err)
	}
	var listed []*spec
	for _, s := range specs {
		if s.listed {
			listed = append(listed, s)
		}
	}
	if len(m.Workloads) != len(listed) {
		t.Fatalf("%d workloads in the manifest, %d listed in code", len(m.Workloads), len(listed))
	}
	for i, s := range listed {
		if m.Workloads[i].Name != s.name || m.Workloads[i].Why != s.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], s.name, s.why)
		}
	}
	if len(m.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in code", len(m.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if got := m.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, got, d)
		}
	}
	if len(m.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in code", len(m.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, got, d)
		}
	}
}
