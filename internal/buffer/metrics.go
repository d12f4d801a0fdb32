package buffer

import "taurus/internal/obs"

// RegisterMetrics surfaces the pool's hit and miss counters, summed
// over shards at scrape time; the hot path is untouched. The role label
// distinguishes pools when one process hosts several (master +
// replicas).
func (p *Pool) RegisterMetrics(reg *obs.Registry, role string) {
	if reg == nil {
		return
	}
	labels := []obs.Label{obs.L("role", role)}
	agg := func(pick func(ShardStats) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, sh := range p.ShardStatsSnapshot() {
				total += pick(sh)
			}
			return float64(total)
		}
	}
	reg.CounterFunc("taurus_buffer_hits_total", "Buffer pool hits.",
		agg(func(s ShardStats) uint64 { return s.Hits }), labels...)
	reg.CounterFunc("taurus_buffer_misses_total", "Buffer pool misses (Page Store fetches).",
		agg(func(s ShardStats) uint64 { return s.Misses }), labels...)
}
