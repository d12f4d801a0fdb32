package sal

import (
	"taurus/internal/obs"
)

// salMetrics holds the SAL's optional write/read-path instruments. The
// zero value (all nil) is fully inert: every instrument method is
// nil-receiver safe, so uninstrumented SALs pay at most a branch per
// blocked wait and nothing on the unblocked fast paths.
type salMetrics struct {
	// Write-path stage histograms, one series per stage label:
	//   stage_wait   – writer blocked on staging/apply backpressure
	//   seal         – window age, first staged record → seal
	//   append       – Log Store append round trip (network + fsync)
	//   durable_wait – commit blocked on the durable watermark
	//   apply_wait   – read blocked on a page's applied LSN
	//   apply        – Page Store apply round trip (all replicas)
	stageWait   *obs.Histogram
	seal        *obs.Histogram
	append      *obs.Histogram
	durableWait *obs.Histogram
	applyWait   *obs.Histogram
	apply       *obs.Histogram

	// Read-path fetch histograms.
	fetchPage  *obs.Histogram
	fetchBatch *obs.Histogram

	enabled bool
}

const writepathStageHist = "taurus_writepath_stage_seconds"

// initMetrics registers the SAL's instruments in reg and wires scrape-
// time gauges over the existing pipeline counters. No-op when reg is
// nil.
func (s *SAL) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(writepathStageHist,
			"Write-path stage latency: stage_wait, seal, append, durable_wait, apply_wait, apply.",
			nil, obs.L("stage", name))
	}
	s.m = salMetrics{
		stageWait:   stage("stage_wait"),
		seal:        stage("seal"),
		append:      stage("append"),
		durableWait: stage("durable_wait"),
		applyWait:   stage("apply_wait"),
		apply:       stage("apply"),
		fetchPage: reg.Histogram("taurus_pagestore_fetch_seconds",
			"Page Store fetch round trip.", nil, obs.L("kind", "page")),
		fetchBatch: reg.Histogram("taurus_pagestore_fetch_seconds",
			"Page Store fetch round trip.", nil, obs.L("kind", "batch")),
		enabled: true,
	}
	reg.GaugeFunc("taurus_sal_durable_lsn", "Durable (commit) watermark.",
		func() float64 { return float64(s.durableAtomic.Load()) })
	reg.GaugeFunc("taurus_sal_allocated_lsn", "Last allocated LSN.",
		func() float64 { return float64(s.lsn.Load()) })
	reg.GaugeFunc("taurus_sal_pending_records", "Records staged or in flight, not yet applied.",
		func() float64 { return float64(s.pending.Load()) })
	reg.CounterFunc("taurus_sal_windows_flushed_total", "Sealed group-commit windows.",
		func() float64 { return float64(s.counters.windows.Load()) })
	reg.CounterFunc("taurus_sal_backpressure_stalls_total", "Writer/flusher stalls on staging, in-flight or slice apply-backlog budgets.",
		func() float64 { return float64(s.counters.backpressureStalls.Load()) })
	reg.CounterFunc("taurus_sal_commit_waits_total", "WaitDurable calls that actually blocked.",
		func() float64 { return float64(s.counters.commitWaits.Load()) })
	reg.CounterFunc("taurus_sal_apply_waits_total", "Reads that blocked on a page's applied LSN.",
		func() float64 { return float64(s.counters.applyWaits.Load()) })
	reg.CounterFunc("taurus_sal_frontier_notifies_total", "Applied-frontier relays sent to Log Stores for push-stream piggybacking.",
		func() float64 { return float64(s.counters.frontierNotifies.Load()) })
}
