package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifestFile is the part of BENCHMARK.json that -agree reads.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares two result files on every end-to-end metric of
// every workload against the manifest's bounds. It prints one row per
// pairing and returns the exit code: 1 if any pairing disagrees (either
// result worse than the other by more than the bound, or a figure
// missing), 2 if the inputs cannot be read.
func agreeFiles(out io.Writer, manifestPath, pathA, pathB string) int {
	var m manifestFile
	var a, b resultFile
	for _, in := range []struct {
		path string
		v    any
	}{{manifestPath, &m}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench -agree:", err)
			return 2
		}
	}
	if a.Short || b.Short {
		fmt.Fprintln(out, "note: a -short result is not comparable; rows below are for iteration only")
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(out, "note: window lengths differ (%d s vs %d s)\n", a.Seconds, b.Seconds)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA (seed %d)\tB (seed %d)\tunit\tB/A\tbound\tverdict\n", a.Seed, b.Seed)
	disagreements := 0
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := lookup(a, wl.Name, d.Name), lookup(b, wl.Name, d.Name)
			if va == nil || vb == nil || *va == 0 {
				disagreements++
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t-\t%.0f%%\tMISSING\n", wl.Name, d.Name, show(va), show(vb), d.Unit, d.Bound*100)
				continue
			}
			r := *vb / *va
			verdict := "agree"
			if r > 1+d.Bound || r < 1/(1+d.Bound) {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3f (base A)\t%.0f%%\t%s\n", wl.Name, d.Name, show(va), show(vb), d.Unit, r, d.Bound*100, verdict)
		}
	}
	tw.Flush()
	if disagreements > 0 {
		fmt.Fprintf(out, "%d end-to-end pairing(s) disagree\n", disagreements)
		return 1
	}
	fmt.Fprintln(out, "every end-to-end metric agrees within its bound on every workload")
	return 0
}

func lookup(f resultFile, workload, metric string) *float64 {
	res := f.Workloads[workload]["end_to_end"]
	if res == nil {
		return nil
	}
	return res.Metrics[metric].Value
}

func show(v *float64) string {
	if v == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g", *v)
}
