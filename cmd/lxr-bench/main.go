// Command lxr-bench regenerates the paper's tables and figures on the
// simulated runtime.
//
// Usage:
//
//	lxr-bench -experiment table1|table3|table4|table5|table6|table7|figure5|figure7|sensitivity|heapsens|mutscale|all
//	          [-scale quick|default] [-gcthreads N]
//	          [-interval D] [-bench name,name,...] [-json file|-]
//
// -json additionally emits every executed run as a machine-readable
// JSON array of summaries (pause percentiles — overall and per phase —
// MMU curves, throughput, STW totals) to the given file, or to stdout
// with "-". -interval emits periodic per-window latency and pause
// percentiles during each run; windows whose p99 departs more than 2x
// from the trailing mean are marked drift:true.
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
		fastpath   = flag.String("fastpath", "", "run the mutator fast-path microbench family (ns/alloc, ns/ptr-store fast+slow, ns/line-scan for LXR and the barrier-bearing baselines) and write the report to this file ('-' = stdout); other experiment flags are ignored")
		fpSamples  = flag.Int("fpsamples", 5, "timed samples per fast-path benchmark (with -fastpath)")
	)
	flag.Parse()
	jsonOut := cf.JSON

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
	curExperiment := ""
	// Probe the output path before running anything: a typo'd path must
	// fail fast, not after hours of experiments.
	var jsonW io.Writer
	var commitJSON func()
	if *jsonOut != "" {
		jsonW, commitJSON = openOut(*jsonOut)
		opts.Record = func(r *harness.RunResult) {
			s := r.Summary()
			s.Experiment = curExperiment
			summaries = append(summaries, s)
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

	if *jsonOut != "" {
		if err := harness.WriteJSON(jsonW, summaries); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		commitJSON()
	}
}

// openOut opens an output for writing and returns it with the function
// that completes it. "-" is stdout. Anything else is written to
// path+".tmp" and renamed into place by commit, so an aborted run never
// destroys the previous results file.
func openOut(path string) (w io.Writer, commit func()) {
	if path == "-" {
		return os.Stdout, func() {}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", tmp, err)
		os.Exit(1)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close %s: %v\n", tmp, err)
			os.Exit(1)
		}
		if err := os.Rename(tmp, path); err != nil {
			fmt.Fprintf(os.Stderr, "rename %s: %v\n", tmp, err)
			os.Exit(1)
		}
	}
}

// experimentOrder is the canonical experiment list ("-experiment all").
var experimentOrder = []string{"table1", "table3", "table4", "table5", "table6", "table7", "figure5", "figure7", "sensitivity", "heapsens", "mutscale"}

// runFastpath runs the fast-path microbench family and writes the
// report (BENCH_fastpath.json).
func runFastpath(out string, samples int) {
	rep := fastbench.Run(fastbench.Options{Samples: samples, Log: os.Stdout})
	w, commit := openOut(out)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
		os.Exit(1)
	}
	commit()
}
