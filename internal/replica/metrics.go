package replica

import "taurus/internal/obs"

// registerMetrics arms the replica's instruments: visible-LSN lag
// gauges (scrape-time, over the existing atomics) and the
// catch-up/advance histograms observed by Start and advance. No-op when
// reg is nil.
func (r *Replica) registerMetrics(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	if name == "" {
		name = "replica"
	}
	labels := []obs.Label{obs.L("replica", name)}
	r.mAdvance = reg.Histogram("taurus_replica_refresh_seconds",
		"One advance cycle.", nil, labels...)
	r.mCatchup = reg.Histogram("taurus_replica_catchup_seconds",
		"Start-time catch-up to the master's durable watermark.", nil, labels...)
	reg.GaugeFunc("taurus_replica_visible_lsn", "Snapshot LSN reads are served at.",
		func() float64 { return float64(r.visible.Load()) }, labels...)
	reg.GaugeFunc("taurus_replica_lag_records", "Master durable watermark minus visible LSN (LSNs are dense).",
		func() float64 {
			floor, visible := r.notified.Load(), r.visible.Load()
			if floor <= visible {
				return 0
			}
			return float64(floor - visible)
		}, labels...)
	reg.GaugeFunc("taurus_replica_lag_bytes", "Encoded bytes tailed but not yet visible.",
		func() float64 { return float64(r.stats.lagBytes.Load()) }, labels...)
	counter := func(metric, help string, load func() uint64) {
		reg.CounterFunc(metric, help, func() float64 { return float64(load()) }, labels...)
	}
	counter("taurus_replica_refreshes_total", "Failed replica page and batch reads (snapshot misses; a SQL statement restarts once on one).", r.stats.refreshes.Load)
	counter("taurus_replica_records_tailed_total", "Log records consumed from the Log Stores.", r.stats.recordsTailed.Load)
	counter("taurus_replica_pages_invalidated_total", "Cached pages evicted as records became visible.", r.stats.pagesInvalidated.Load)
	counter("taurus_replica_resyncs_total", "Hard resets after log GC overran the tail.", r.stats.resyncs.Load)
	counter("taurus_replica_stream_batches_total", "Pushed stream frames received.", r.stats.streamBatches.Load)
	counter("taurus_replica_ckpt_resyncs_total", "Checkpoint rebases after log GC overran a detached tail.", r.stats.ckptResyncs.Load)
	reg.GaugeFunc("taurus_replica_subscribed", "1 when attached to a Log Store push stream.",
		func() float64 {
			if r.subscribed.Load() {
				return 1
			}
			return 0
		}, labels...)
}
