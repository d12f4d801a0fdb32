package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runChild runs one workload in a process of its own (one process per
// run, so runs share no heap, page cache residue aside) and returns the
// result object it printed last.
func runChild(o options, workload string, seed int64, seconds float64, smoke bool) (resultOut, error) {
	self, err := os.Executable()
	if err != nil {
		return resultOut{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0",
		"-tmp", o.tmpDir, "-out", o.outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	if err != nil {
		return resultOut{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var out resultOut
	if err := json.Unmarshal(last, &out); err != nil {
		return resultOut{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return out, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload runs times on each of two sides of the same
// code, interleaved A B A B with a fresh seed every run, and holds each
// end-to-end metric to its own bound: the spread of each side (distance
// between quartiles as a share of the median; setup_s exempt, as in the
// acceptance rule) and the drift of B's median against A's. It returns
// the process exit code.
func runAA(o options, seconds float64, runs int, smoke bool) int {
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	failedOps := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for side := 0; side < 2; side++ {
				seed := int64(1 + 2*i + side)
				out, err := runChild(o, w.name, seed, seconds, smoke)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: aa: %v\n", err)
					return 1
				}
				failedOps += out.Failed
				for _, d := range endToEnd {
					k := key{w.name, d.name}
					vals[side][k] = append(vals[side][k], out.Metrics[d.name].Value)
				}
				fmt.Printf("aa run %d/%d %s side %c seed %d: failed=%d", i+1, runs, w.name, 'A'+side, seed, out.Failed)
				for _, d := range endToEnd {
					fmt.Printf(" %s=%.4g", d.name, out.Metrics[d.name].Value)
				}
				fmt.Println()
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "A/A report: %d runs per side and workload, window %gs, smoke=%v\n\n", runs, seconds, smoke)
	fmt.Fprintf(&sb, "%-14s %-22s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "drift", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			a, b := vals[0][k], vals[1][k]
			sa, sb2 := spread(a), spread(b)
			drift := worseBy(d, median(a), median(b))
			verdict := "ok"
			switch {
			case d.name != "setup_s" && (sa > d.bound || sb2 > d.bound):
				verdict = "SPREAD>BOUND"
				bad++
			case drift > d.bound:
				verdict = "DRIFT>BOUND"
				bad++
			case d.name != "setup_s" && (sa > d.bound/3 || sb2 > d.bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(&sb, "%-14s %-22s %12.4f %12.4f %8.4f %8.4f %+8.4f %6.2f  %s\n",
				w.name, d.name, median(a), median(b), sa, sb2, drift, d.bound, verdict)
		}
	}
	fmt.Fprintf(&sb, "\nfailed operations: %d; metric cells out of bound: %d\n", failedOps, bad)
	fmt.Print(sb.String())
	if err := os.MkdirAll(o.outDir, 0o755); err == nil {
		path := filepath.Join(o.outDir, "aa-report.txt")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: aa: %v\n", err)
		}
	}
	if bad > 0 || failedOps > 0 {
		return 1
	}
	return 0
}
