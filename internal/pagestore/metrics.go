package pagestore

import (
	"time"

	"taurus/internal/obs"
)

// WithMetrics registers the store's counters as scrape-time metric
// families and arms the apply/read latency histograms. Pass it to New
// after the store has its name (options run after construction).
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Store) { s.registerMetrics(reg) }
}

func (s *Store) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	labels := []obs.Label{obs.L("node", s.name)}
	s.applyHist = reg.Histogram("taurus_pagestore_apply_seconds",
		"Redo-record batch apply latency (one WriteLogs call).", nil, labels...)
	s.readHist = reg.Histogram("taurus_pagestore_read_seconds",
		"Single-page read latency.", nil, labels...)
	counter := func(name, help string, pick func(StatsSnapshot) uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(pick(s.Snapshot())) }, labels...)
	}
	counter("taurus_pagestore_records_applied_total", "Redo records applied.",
		func(st StatsSnapshot) uint64 { return st.LogRecordsApplied })
	counter("taurus_pagestore_records_skipped_total", "Idempotent redeliveries dropped.",
		func(st StatsSnapshot) uint64 { return st.LogRecordsSkipped })
	counter("taurus_pagestore_page_reads_total", "Single-page reads served.",
		func(st StatsSnapshot) uint64 { return st.PageReads })
	counter("taurus_pagestore_batch_reads_total", "Batch reads served.",
		func(st StatsSnapshot) uint64 { return st.BatchReads })
	counter("taurus_pagestore_ndp_pages_processed_total", "Pages processed by NDP pushdown.",
		func(st StatsSnapshot) uint64 { return st.NDPPagesProcessed })
	counter("taurus_pagestore_ndp_pages_skipped_total", "Pages NDP skipped under resource control.",
		func(st StatsSnapshot) uint64 { return st.NDPPagesSkipped })
	reg.GaugeFunc("taurus_pagestore_applied_lsn", "Node-wide minimum applied LSN across slices.",
		func() float64 { _, applied, _ := s.LSNInfo(0); return float64(applied) }, labels...)
	reg.GaugeFunc("taurus_pagestore_persisted_lsn", "Node-wide minimum checkpointed LSN across slices.",
		func() float64 { _, _, persisted := s.LSNInfo(0); return float64(persisted) }, labels...)
	reg.GaugeFunc("taurus_pagestore_slices", "Slices hosted.",
		func() float64 { n, _, _ := s.LSNInfo(0); return float64(n) }, labels...)
	reg.CounterFunc("taurus_pagestore_desc_cache_hits_total",
		"NDP descriptor cache hits (descriptor bytes hashed to a cached processor; no decode).",
		func() float64 { h, _ := s.DescCacheStats(); return float64(h) }, labels...)
	reg.CounterFunc("taurus_pagestore_desc_cache_misses_total",
		"NDP descriptor cache misses (descriptor and its IR programs decoded into a new processor).",
		func() float64 { _, m := s.DescCacheStats(); return float64(m) }, labels...)
	reg.GaugeFunc("taurus_pagestore_ndp_queue_depth",
		"NDP pages admitted right now (queued or processing) under resource control.",
		func() float64 { return float64(s.NDPQueueDepth()) }, labels...)
	reg.GaugeFunc("taurus_pagestore_version_pins", "Active replica version pins.",
		func() float64 { return float64(s.VersionPins()) }, labels...)
	reg.GaugeFunc("taurus_pagestore_version_pin_floor", "Lowest pinned version LSN (0 = unpinned).",
		func() float64 { return float64(s.VersionPinFloor()) }, labels...)
}

// observeInto returns a completion func feeding h, or a no-op when the
// histogram is disarmed.
func observeInto(h *obs.Histogram) func() {
	if h == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { h.ObserveDuration(time.Since(t0)) }
}
