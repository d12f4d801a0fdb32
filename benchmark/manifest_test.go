package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading the manifest: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("manifest is %d bytes, over 64 KiB", len(raw))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parsing the manifest: %v", err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json and the driver's tables to
// each other, both ways, and to the limits of the manifest schema, so an
// invalid manifest cannot land silently.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the driver (2..8 allowed)", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q, driver has %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, max int, bounded bool) {
		if len(got) < 1 || len(got) > max || len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the driver (1..%d allowed)", kind, len(got), len(want), max)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: manifest has %s/%s/%s, driver has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q of %s is not 1..16 of [A-Za-z0-9_/%%.-]", kind, g.Unit, g.Name)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better of %s is %q", kind, g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25 || *g.Bound != w.bound):
				t.Errorf("%s: bound of %s must be in (0, 0.25] and equal the driver's %g", kind, g.Name, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, 16, true)
	compare("per_layer", m.PerLayer, perLayer, 128, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// TestSmokeEmitsEveryMetric drives every workload once in smoke mode,
// untraced and traced, and checks the driver emits exactly the names the
// manifest lists: every end-to-end metric on every workload and non-zero,
// every per-layer metric by at least one workload, and no other name.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives all four workloads")
	}
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	exercised := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, window: time.Second, trace: trace,
				tmpDir: t.TempDir(), outDir: t.TempDir(), sz: smokeSizes()}
			start := time.Now()
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			t.Logf("%s trace=%v: %d ops in %s", w.name, trace, res.attempted, time.Since(start).Round(time.Millisecond))
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.failed, res.attempted, res.notes)
			}
			for name := range res.metrics {
				if !known[name] {
					t.Errorf("%s: driver emits %q, which the manifest does not list", w.name, name)
				}
				exercised[name] = true
			}
			for _, d := range endToEnd {
				// scan_net_mb_per_pass is legitimately 0 at smoke
				// scale, where the whole database fits the pool.
				if v, ok := res.metrics[d.name]; !ok || (v == 0 && d.name != "scan_net_mb_per_pass") {
					t.Errorf("%s trace=%v: end-to-end metric %s missing or zero", w.name, trace, d.name)
				}
			}
		}
	}
	for _, d := range perLayer {
		if !exercised[d.name] {
			t.Errorf("per-layer metric %s is emitted by no workload", d.name)
		}
	}
}
