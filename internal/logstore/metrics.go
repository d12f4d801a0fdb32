package logstore

import (
	"time"

	"taurus/internal/obs"
)

// RegisterMetrics arms the append-latency histogram (covering decode,
// dedupe, disk write, and the group-commit fsync wait) and surfaces the
// durable watermark and the push-stream lag as scrape-time gauges.
// No-op when reg is nil.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	labels := []obs.Label{obs.L("node", s.name)}
	s.appendHist = reg.Histogram("taurus_logstore_append_seconds",
		"Log Store append latency including the group-commit fsync wait.", nil, labels...)
	reg.GaugeFunc("taurus_logstore_durable_lsn", "Durable watermark.",
		func() float64 { return float64(s.DurableLSN()) }, labels...)
	reg.GaugeFunc("taurus_logstore_stream_lag_records", "Records between the durable LSN and the slowest subscriber.",
		func() float64 { return float64(s.StreamLag()) }, labels...)
}

// observeAppend times one Append call; returns a no-op when metrics are
// disarmed.
func (s *Store) observeAppend() func() {
	if s.appendHist == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { s.appendHist.ObserveDuration(time.Since(t0)) }
}
