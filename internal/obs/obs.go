// Package obs is a dependency-free observability layer: a metrics
// registry of atomic counters, scrape-time gauges, and log-bucketed
// histograms with Prometheus text-format export, plus lightweight span
// tracing for slow-operation logging.
//
// Design goals, in order:
//
//  1. Hot-path cost near zero: instruments are plain atomics, looked up
//     once at component init and stored in struct fields. All instrument
//     methods are nil-receiver safe so uninstrumented components pay a
//     single predictable branch.
//  2. No third-party dependencies (stdlib only).
//  3. Valid Prometheus text exposition, verified by ValidateExposition
//     (shared by unit tests and the CI smoke check).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v  atomic.Uint64
	fn func() float64 // non-nil for CounterFunc-backed series
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return uint64(c.fn())
	}
	return c.v.Load()
}

func (c *Counter) value() float64 {
	if c.fn != nil {
		return c.fn()
	}
	return float64(c.v.Load())
}

// Gauge is a gauge read from a function at scrape time (GaugeFunc).
type Gauge struct {
	fn func() float64
}

// Value returns the current gauge value. Safe on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.fn()
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is a named metric with one or more labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []string // insertion order for stable export
}

// Registry is a set of metric families. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use, and all
// lookup methods are get-or-create: asking for the same name+labels
// twice returns the same instrument.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns (creating if needed) the series for name+labels, after
// checking the family's kind. A kind conflict on an existing name is a
// programming error and panics. init runs under the registry lock, so
// the instrument a series carries is fully built before any concurrent
// scrape can observe the series — scrapers snapshot under the same
// lock.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, init func(*series)) *series {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: labels}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	init(s)
	return s
}

// Counter returns the counter named name with the given labels,
// creating it if needed. Safe on a nil registry (returns a nil
// instrument, whose methods are no-ops).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.ctr == nil {
			s.ctr = &Counter{}
		}
	})
	if s == nil {
		return nil
	}
	return s.ctr
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. Used to surface pre-existing atomic counters without rewriting
// them. Safe on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, kindCounter, labels, func(s *series) {
		s.ctr = &Counter{fn: fn}
	})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. Safe on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, kindGauge, labels, func(s *series) {
		s.gauge = &Gauge{fn: fn}
	})
}

// Histogram returns the histogram named name with the given labels,
// creating it with the given bucket upper bounds if needed (nil buckets
// selects DefaultLatencyBuckets). Safe on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = NewHistogram(buckets)
		}
	})
	if s == nil {
		return nil
	}
	return s.hist
}
