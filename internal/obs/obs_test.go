package obs

import (
	"bytes"
	"log"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("taurus_test_total", "test counter")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if same := r.Counter("taurus_test_total", "test counter"); same != c {
		t.Fatal("get-or-create returned a different counter")
	}
	r.GaugeFunc("taurus_fn_gauge", "fn gauge", func() float64 { return 42 })
	r.CounterFunc("taurus_fn_total", "fn counter", func() float64 { return 7 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if text := buf.String(); !strings.Contains(text, "taurus_fn_gauge 42") ||
		!strings.Contains(text, "taurus_fn_total 7") {
		t.Fatalf("func-backed series not exported:\n%s", text)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Add(1)
	r.GaugeFunc("x", "", func() float64 { return 1 })
	var g *Gauge
	h := r.Histogram("x_seconds", "", nil)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must be inert")
	}
	var tr *Trace
	tr.Step("a")
	if tr.Total() != 0 || tr.String() != "" {
		t.Fatal("nil trace must be inert")
	}
	var sl *SlowOpLog
	if sl.Observe(tr) || sl.Enabled() || sl.Fired() != 0 {
		t.Fatal("nil slow-op log must be inert")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("taurus_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.GaugeFunc("taurus_conflict", "", func() float64 { return 0 })
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 1.2, 120))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4) // 0.1ms .. 100ms uniform
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Max-0.1) > 1e-9 {
		t.Fatalf("max = %v, want 0.1", s.Max)
	}
	if rel := math.Abs(s.P50-0.05) / 0.05; rel > 0.25 {
		t.Fatalf("p50 = %v, want ~0.05 (rel err %v)", s.P50, rel)
	}
	if rel := math.Abs(s.P99-0.099) / 0.099; rel > 0.25 {
		t.Fatalf("p99 = %v, want ~0.099 (rel err %v)", s.P99, rel)
	}
	if mean := s.Mean(); math.Abs(mean-0.05) > 0.005 {
		t.Fatalf("mean = %v, want ~0.05", mean)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-3)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	if math.Abs(s.Sum-8.0) > 1e-6 {
		t.Fatalf("sum = %v, want 8.0", s.Sum)
	}
}

func TestPrometheusExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("taurus_reqs_total", "requests", L("type", "MsgWriteLogs")).Add(10)
	r.Counter("taurus_reqs_total", "requests", L("type", `quo"te\back`)).Add(2)
	r.GaugeFunc("taurus_lag", "lag", func() float64 { return 3.5 })
	h := r.Histogram("taurus_lat_seconds", "latency", nil, L("stage", "append"))
	h.Observe(0.001)
	h.Observe(0.004)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := ValidateExposition(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{"taurus_reqs_total", "taurus_lag", "taurus_lat_seconds", "taurus_lat_seconds_max"} {
		if _, ok := fams[want]; !ok {
			t.Fatalf("family %q missing from exposition", want)
		}
	}
	if !strings.Contains(text, `taurus_lat_seconds_bucket{stage="append",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
	if !strings.Contains(text, `taurus_lat_seconds_count{stage="append"} 2`) {
		t.Fatalf("missing _count:\n%s", text)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []string{
		"taurus_x 1\n", // sample without TYPE
		"# TYPE taurus_x counter\ntaurus_x notanumber\n",
		"# TYPE taurus_x widget\ntaurus_x 1\n",
		"# TYPE taurus_x histogram\ntaurus_x_count 3\ntaurus_x_sum 1\n", // no +Inf bucket
		"",
	}
	for _, c := range cases {
		if _, err := ValidateExposition(c); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}

func TestTraceAndSlowOpLog(t *testing.T) {
	tr := NewTrace("INSERT INTO t")
	time.Sleep(2 * time.Millisecond)
	tr.Step("parse")
	tr.Step("commit")
	if len(tr.Stages()) != 2 {
		t.Fatalf("stages = %d, want 2", len(tr.Stages()))
	}
	s := tr.String()
	if !strings.Contains(s, `op="INSERT INTO t"`) || !strings.Contains(s, "parse:") {
		t.Fatalf("trace string = %q", s)
	}

	var buf bytes.Buffer
	slow := NewSlowOpLog(time.Millisecond, log.New(&buf, "", 0))
	if !slow.Observe(tr) {
		t.Fatal("slow-op should fire above threshold")
	}
	if !strings.Contains(buf.String(), "SLOW-OP") {
		t.Fatalf("log output = %q", buf.String())
	}
	if slow.Fired() != 1 {
		t.Fatalf("fired = %d", slow.Fired())
	}

	buf.Reset()
	fast := NewTrace("SELECT 1")
	fast.Step("all")
	quiet := NewSlowOpLog(time.Hour, log.New(&buf, "", 0))
	if quiet.Observe(fast) {
		t.Fatal("slow-op must stay silent below threshold")
	}
	if buf.Len() != 0 {
		t.Fatalf("unexpected output %q", buf.String())
	}
	if NewSlowOpLog(0, nil) != nil {
		t.Fatal("zero threshold must disable the log")
	}
}
