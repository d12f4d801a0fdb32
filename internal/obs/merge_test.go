package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestHistogramMerge checks the fold semantics: buckets, count, sum,
// and max combine; mismatched bucket shapes are ignored; nil and
// self-merge are inert.
func TestHistogramMerge(t *testing.T) {
	bounds := []float64{1, 10, 100}
	a := NewHistogram(bounds)
	b := NewHistogram(bounds)
	for _, v := range []float64{0.5, 5, 50} {
		a.Observe(v)
	}
	for _, v := range []float64{5, 500} {
		b.Observe(v)
	}
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 5 {
		t.Fatalf("merged count = %d, want 5", s.Count)
	}
	if want := 0.5 + 5 + 50 + 5 + 500; s.Sum != want {
		t.Errorf("merged sum = %g, want %g", s.Sum, want)
	}
	if s.Max != 500 {
		t.Errorf("merged max = %g, want 500", s.Max)
	}
	// Bucket loads: (<=1)=1, (<=10)=2, (<=100)=1, +Inf=1.
	if got := fmt.Sprint(s.Counts); got != "[1 2 1 1]" {
		t.Errorf("merged buckets = %v", s.Counts)
	}

	// Mismatched shapes must not corrupt the destination.
	c := NewHistogram([]float64{1, 2})
	c.Observe(1)
	before := a.Snapshot().Count
	a.Merge(c)
	if a.Snapshot().Count != before {
		t.Error("mismatched-bounds merge changed the histogram")
	}

	a.Merge(nil)
	a.Merge(a)
	var nilH *Histogram
	nilH.Merge(b)
	if a.Snapshot().Count != before {
		t.Error("nil/self merge changed the histogram")
	}
}

// TestHistogramMergeConcurrent folds shard histograms into an aggregate
// while the shards are still being observed and the aggregate is being
// snapshotted — run with -race. The invariant: after everything joins,
// the aggregate's count equals its bucket loads' total and every
// pre-merge observation is present.
func TestHistogramMergeConcurrent(t *testing.T) {
	bounds := []float64{0.25, 0.5, 1}
	const shards, perShard = 4, 1000
	agg := NewHistogram(bounds)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		shard := NewHistogram(bounds)
		for i := 0; i < perShard/2; i++ {
			shard.Observe(0.3) // half the load lands before the merges start
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perShard/2; i++ {
				shard.Observe(0.7)
			}
		}()
		go func() {
			defer wg.Done()
			agg.Merge(shard)
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			agg.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := agg.Snapshot()
	var total uint64
	for _, n := range s.Counts {
		total += n
	}
	if s.Count != total {
		t.Fatalf("count %d != bucket total %d after concurrent merges", s.Count, total)
	}
	if s.Count < shards*perShard/2 {
		t.Errorf("count = %d, want >= %d (pre-merge observations lost)", s.Count, shards*perShard/2)
	}
}

// TestRegistryScrapeWhileUpdate hammers one registry from writers
// (creating and updating counters, gauges, histograms — colliding on
// names so the get-or-create path is exercised) while scrapers render
// /metrics — run with -race. Every scrape must also stay a valid
// exposition.
func TestRegistryScrapeWhileUpdate(t *testing.T) {
	reg := NewRegistry()
	// Seed one family so the very first scrape (possibly before any
	// writer's first iteration) is a non-empty, valid exposition.
	reg.Counter("taurus_test_ops_total", "ops", L("worker", "0")).Inc()
	stop := make(chan struct{})
	var writers, scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter("taurus_test_ops_total", "ops",
					L("worker", fmt.Sprintf("%d", w%2))).Inc()
				depth := float64(i)
				reg.GaugeFunc("taurus_test_depth", "depth", func() float64 { return depth },
					L("worker", fmt.Sprintf("%d", w%2)))
				reg.Histogram("taurus_test_latency_seconds", "lat", nil,
					L("worker", fmt.Sprintf("%d", w%2))).Observe(0.01)
				reg.GaugeFunc("taurus_test_func", "fn", func() float64 { return 1 })
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if _, err := ValidateExposition(rec.Body.String()); err != nil {
					t.Errorf("scrape %d invalid: %v", i, err)
					return
				}
			}
		}()
	}
	// Writers spin until the scrapers finish their rounds.
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
