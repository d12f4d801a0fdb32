package replica

import "taurus/internal/obs"

// registerMetrics arms the advance-cycle histogram observed by advance.
// No-op when reg is nil.
func (r *Replica) registerMetrics(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	if name == "" {
		name = "replica"
	}
	r.mAdvance = reg.Histogram("taurus_replica_refresh_seconds",
		"One advance cycle.", nil, obs.L("replica", name))
}
