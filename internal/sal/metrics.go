package sal

import (
	"taurus/internal/obs"
)

// salMetrics holds the SAL's optional write-path instruments. The
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

	enabled bool
}

const writepathStageHist = "taurus_writepath_stage_seconds"

// initMetrics registers the SAL's stage histograms in reg and a
// scrape-time gauge over the durable watermark. No-op when reg is nil.
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
		enabled:     true,
	}
	reg.GaugeFunc("taurus_sal_durable_lsn", "Durable (commit) watermark.",
		func() float64 { return float64(s.durableAtomic.Load()) })
}
