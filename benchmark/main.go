// Command benchmark is the repo's benchmark driver: four closed-loop
// workloads against the in-process Taurus fleet, end-to-end metrics with
// tracing off, and a traced mode that attributes time to layers from
// outside the product. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart anchors setup_s: process start to fleet ready.
var processStart = time.Now()

func main() {
	var o options
	var seconds float64
	var trace int
	var smoke, aa, manifest bool
	var aaRuns int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ndp_scan, raw_scan, oltp_mixed, htap_replica")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.tmpDir, "tmp", ".bench_build/tmp", "where data directories are made (removed at exit)")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "where span dumps and A/A reports are written")
	flag.BoolVar(&smoke, "smoke", false, "tiny sizes: every code path in a few seconds, numbers mean nothing")
	flag.BoolVar(&aa, "aa", false, "A/A mode: run every workload repeatedly, interleaved, and compare each end-to-end metric with its bound")
	flag.IntVar(&aaRuns, "aa-runs", 10, "runs per side and workload in A/A mode")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as the driver's tables define it, and exit")
	flag.Parse()
	if manifest {
		printManifest(int(seconds))
		return
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0
	o.sz = fullSizes()
	if smoke {
		o.sz = smokeSizes()
	}
	if aa {
		os.Exit(runAA(o, seconds, aaRuns, smoke))
	}
	if !findWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	report(o, res)
}

// runWorkload runs one workload in this process, in a data directory of
// its own that is removed afterwards.
func runWorkload(o options) (*result, error) {
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmpDir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.tmpDir = dir
	res := newResult()
	switch o.workload {
	case "ndp_scan":
		err = runScan(o, true, res)
	case "raw_scan":
		err = runScan(o, false, res)
	case "oltp_mixed":
		err = runOLTP(o, res)
	case "htap_replica":
		err = runHTAP(o, res)
	}
	return res, err
}

// reported is the metric list a mode prints: end-to-end with tracing
// off, per-layer from the traced run.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints every metric by name with its unit, then the result
// object as the last line of standard output.
func report(o options, res *result) {
	fmt.Printf("workload %s seed %d window %s trace %v\n", o.workload, o.seed, o.window, o.trace)
	out := resultOut{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricOut{}}
	for _, d := range reported(o.trace) {
		v := res.metrics[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("  %-44s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, line := range res.info {
		fmt.Printf("  # %s\n", line)
	}
	for _, n := range res.notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printManifest renders BENCHMARK.json from the driver's own tables, so
// the manifest is generated, not hand-kept; manifest_test.go checks the
// committed file still matches.
func printManifest(runSeconds int) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	out := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		out.EndToEnd = append(out.EndToEnd, metric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}
