package logstore

import (
	"time"

	"taurus/internal/obs"
)

// RegisterMetrics surfaces the store's watermarks as scrape-time gauges
// and arms the append-latency histogram (covering decode, dedupe, disk
// write, and the group-commit fsync wait). No-op when reg is nil.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	labels := []obs.Label{obs.L("node", s.name)}
	s.appendHist = reg.Histogram("taurus_logstore_append_seconds",
		"Log Store append latency including the group-commit fsync wait.", nil, labels...)
	s.appendRecs = reg.Counter("taurus_logstore_records_total",
		"Fresh records accepted (idempotent redeliveries excluded).", labels...)
	reg.GaugeFunc("taurus_logstore_durable_lsn", "Durable watermark.",
		func() float64 { return float64(s.DurableLSN()) }, labels...)
	reg.GaugeFunc("taurus_logstore_truncated_lsn", "GC watermark.",
		func() float64 { return float64(s.TruncatedLSN()) }, labels...)
	reg.GaugeFunc("taurus_logstore_records", "Records held in memory.",
		func() float64 { return float64(s.Len()) }, labels...)
	reg.GaugeFunc("taurus_logstore_segments", "On-disk segment files.",
		func() float64 { return float64(s.Segments()) }, labels...)
	// Subscription-stream families (push-based replica distribution).
	reg.GaugeFunc("taurus_logstore_stream_subscribers", "Active push-stream subscribers.",
		func() float64 { return float64(s.Subscribers()) }, labels...)
	reg.GaugeFunc("taurus_logstore_stream_lag_records", "Records between the durable LSN and the slowest subscriber.",
		func() float64 { return float64(s.StreamLag()) }, labels...)
	s.mSubscribes = reg.Counter("taurus_logstore_stream_subscribes_total",
		"Subscriptions accepted (attaches and resubscribes).", labels...)
	s.mStreamBatches = reg.Counter("taurus_logstore_stream_batches_total",
		"Pushed stream frames (including frontier-only empties).", labels...)
	s.mStreamRecords = reg.Counter("taurus_logstore_stream_records_total",
		"Log records pushed to subscribers.", labels...)
	s.mStreamDisconnects = reg.Counter("taurus_logstore_stream_disconnects_total",
		"Subscribers disconnected by flow control (queue overflow).", labels...)
	s.mStreamPushErrors = reg.Counter("taurus_logstore_stream_push_errors_total",
		"Pushed frames that failed at the transport (subscriber dropped).", labels...)
}

// observeAppend times one Append call; returns a no-op when metrics are
// disarmed.
func (s *Store) observeAppend() func(freshRecords int) {
	if s.appendHist == nil {
		return func(int) {}
	}
	t0 := time.Now()
	return func(fresh int) {
		s.appendHist.ObserveDuration(time.Since(t0))
		s.appendRecs.Add(uint64(fresh))
	}
}
