// Command lxr-bench regenerates the paper's tables and figures on the
// simulated runtime.
//
// Usage:
//
//	lxr-bench -experiment table1|table3|table4|table5|table6|table7|figure5|figure7|sensitivity|heapsens|mutscale|all
//	          [-scale quick|default] [-gcthreads N] [-concworkers N]
//	          [-interval D] [-bench name,name,...] [-json file|-] [-hist file]
//
// -json additionally emits every executed run as a machine-readable
// JSON array of summaries (pause percentiles — overall and per phase —
// MMU curves, throughput, STW totals) to the given file, or to stdout
// with "-". -hist archives every run's full latency/pause/worker-item
// histograms as sparse bucket dumps. -interval emits periodic
// per-window latency and pause percentiles during each run;
// windows whose p99 departs more than 2x from the trailing mean are
// marked drift:true.
// See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lxr/internal/fastbench"
	"lxr/internal/harness"
)

func main() {
	cf := harness.RegisterCommonFlags(flag.CommandLine, harness.CommonDefaults{Scale: "default"})
	var (
		experiment = flag.String("experiment", "table6", "experiment id (table1, table3, table4, table5, table6, table7, figure5, figure7, sensitivity, heapsens, mutscale, all)")
		histOut    = flag.String("hist", "", "write full latency/pause histogram dumps as JSON to this file ('-' = stdout)")
		fastpath   = flag.String("fastpath", "", "run the mutator fast-path microbench family (ns/alloc, ns/ptr-store fast+slow, ns/line-scan for LXR and the barrier-bearing baselines) and write the report to this file ('-' = stdout); other experiment flags are ignored")
		fpSamples  = flag.Int("fpsamples", 5, "timed samples per fast-path benchmark (with -fastpath)")
		compareTo  = flag.String("compare", "", "compare two BENCH_*.json artifacts: -compare OLD.json NEW.json (fastpath reports, histogram dumps, or run summaries); exits 1 if a noise-aware regression is found")
	)
	flag.Parse()
	jsonOut := cf.JSON

	if *compareTo != "" {
		if flag.NArg() != 1 {
			fmt.Fprintf(os.Stderr, "usage: lxr-bench -compare OLD.json NEW.json\n")
			os.Exit(2)
		}
		regressions, err := harness.CompareFiles(os.Stdout, *compareTo, flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	if *fastpath != "" {
		runFastpath(*fastpath, *fpSamples)
		return
	}

	known := map[string]bool{}
	for _, id := range experimentOrder {
		known[id] = true
	}
	if *experiment != "all" && !known[*experiment] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	opts, err := cf.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Out = os.Stdout
	var summaries []harness.RunSummary
	var dumps []harness.HistDump
	var jsonFile, histFile *os.File
	jsonTmp, histTmp := "", ""
	curExperiment := ""
	// Probe output paths before running anything — a typo'd path must
	// fail fast, not after hours of experiments — but write to temporary
	// files renamed into place at the end, so an aborted run never
	// destroys the previous results files.
	openOut := func(path string) (*os.File, string) {
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", tmp, err)
			os.Exit(1)
		}
		return f, tmp
	}
	if *jsonOut != "" && *jsonOut != "-" {
		jsonFile, jsonTmp = openOut(*jsonOut)
	}
	if *histOut != "" && *histOut != "-" {
		histFile, histTmp = openOut(*histOut)
	}
	if *jsonOut != "" || *histOut != "" {
		opts.Record = func(r *harness.RunResult) {
			if *jsonOut != "" {
				s := r.Summary()
				s.Experiment = curExperiment
				summaries = append(summaries, s)
			}
			if *histOut != "" {
				dumps = append(dumps, r.HistDump(curExperiment))
			}
		}
	}
	run := func(id string) {
		start := time.Now()
		curExperiment = id
		fmt.Printf("== %s ==\n", id)
		switch id {
		case "table1":
			harness.RunTable1(opts)
		case "table3":
			harness.RunTable3(opts)
		case "table4":
			harness.RunTable4(opts)
		case "table5":
			harness.RunTable5(opts)
		case "table6":
			harness.RunTable6(opts)
		case "table7":
			harness.RunTable7(opts)
		case "figure5":
			harness.RunFigure5(opts)
		case "figure7":
			harness.RunFigure7(opts, nil)
		case "sensitivity":
			harness.RunSensitivity(opts)
		case "heapsens":
			harness.RunHeapSensitivity(opts, nil)
		case "mutscale":
			harness.RunMutScale(opts)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, id := range experimentOrder {
			run(id)
		}
	} else {
		run(*experiment)
	}

	finish := func(f *os.File, tmp, dst string, write func(w io.Writer) error) {
		w := io.Writer(os.Stdout)
		if f != nil {
			w = f
		}
		if err := write(w); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", dst, err)
			os.Exit(1)
		}
		if f == nil {
			return
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close %s: %v\n", tmp, err)
			os.Exit(1)
		}
		if err := os.Rename(tmp, dst); err != nil {
			fmt.Fprintf(os.Stderr, "rename %s: %v\n", tmp, err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		finish(jsonFile, jsonTmp, *jsonOut, func(w io.Writer) error { return harness.WriteJSON(w, summaries) })
	}
	if *histOut != "" {
		finish(histFile, histTmp, *histOut, func(w io.Writer) error { return harness.WriteHistJSON(w, dumps) })
	}
}

// experimentOrder is the canonical experiment list ("-experiment all").
var experimentOrder = []string{"table1", "table3", "table4", "table5", "table6", "table7", "figure5", "figure7", "sensitivity", "heapsens", "mutscale"}

// runFastpath runs the fast-path microbench family and writes the
// report (BENCH_fastpath.json) with the same temp-file+rename
// discipline as the experiment outputs.
func runFastpath(out string, samples int) {
	rep := fastbench.Run(fastbench.Options{Samples: samples, Log: os.Stdout})
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if out == "-" {
		if err := write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "write: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tmp := out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, out); err != nil {
		fmt.Fprintf(os.Stderr, "rename %s: %v\n", tmp, err)
		os.Exit(1)
	}
}
