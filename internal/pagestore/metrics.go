package pagestore

import (
	"time"

	"taurus/internal/obs"
)

// WithMetrics arms the apply-latency histogram and registers the
// applied-record count, the persisted LSN and the replica version pins
// as scrape-time families. Pass it to New after the store has its name
// (options run after construction).
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
	reg.CounterFunc("taurus_pagestore_records_applied_total", "Redo records applied.",
		func() float64 { return float64(s.Snapshot().LogRecordsApplied) }, labels...)
	reg.GaugeFunc("taurus_pagestore_persisted_lsn", "Node-wide minimum checkpointed LSN across slices.",
		func() float64 { _, _, persisted := s.LSNInfo(0); return float64(persisted) }, labels...)
	reg.GaugeFunc("taurus_pagestore_version_pins", "Active replica version pins.",
		func() float64 { return float64(s.VersionPins()) }, labels...)
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
