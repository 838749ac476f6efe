// Tuning: sweep LXR's trigger and evacuation knobs on one workload and
// report the throughput/pause trade-offs — the §3.2 heuristics in
// action. Demonstrates configuring the collector through the public API.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"lxr"
	"lxr/internal/workload"
)

func main() {
	spec, _ := workload.ByName("sunflow") // high allocation rate, low survival
	sz := workload.QuickScale().Size(spec)
	heap := 2 * sz.MinHeapBytes

	type variant struct {
		name string
		cfg  lxr.LXRConfig
	}
	variants := []variant{
		{"default", lxr.LXRConfig{}},
		{"small survival threshold (1MB)", lxr.LXRConfig{SurvivalThresholdBytes: 1 << 20}},
		{"large survival threshold (32MB)", lxr.LXRConfig{SurvivalThresholdBytes: 32 << 20}},
		{"no young evacuation", lxr.LXRConfig{NoYoungEvac: true}},
		{"stop-the-world (-SATB -LD)", lxr.LXRConfig{NoConcurrentSATB: true, NoLazyDecrements: true}},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "sunflow-like workload, %d MB heap\n", heap>>20)
	fmt.Fprintln(w, "variant\ttime\tpauses\tp50\tp99")
	for _, v := range variants {
		cfg := v.cfg
		cfg.HeapBytes = heap
		cfg.GCThreads = 4
		rt := lxr.NewRuntime(lxr.RuntimeConfig{Collector: lxr.CollectorLXR, LXR: &cfg})
		res := workload.RunBatch(rt.VM, sz)
		ps := rt.Stats.PausePercentiles(50, 99)
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n",
			v.name, res.Wall.Round(time.Millisecond), rt.Stats.PauseCount(),
			ps[0].Round(10*time.Microsecond), ps[1].Round(10*time.Microsecond))
		rt.Shutdown()
	}
	w.Flush()
}
