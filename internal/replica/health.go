package replica

import (
	"fmt"
	"time"

	"taurus/internal/health"
)

// SetHealth attaches the monitor that answers MsgPing status and
// MsgHealthReport. Pair with RegisterHealth, which installs the
// replica's invariant probes on it.
func (r *Replica) SetHealth(m *health.Monitor) { r.health = m }

// healthReport builds the MsgHealthReport payload. Without a monitor it
// still identifies the node.
func (r *Replica) healthReport() health.Report {
	if r.health == nil {
		return health.Report{Node: r.cfg.Node, Role: "replica",
			Time: time.Now(), Ready: true}
	}
	return r.health.Report()
}

// Durations a degrading condition must persist before a verdict
// escalates. Time-based, not probe-count-based: evaluation cadence is
// whatever pollers drive (/health, /ready, heartbeat responder, the 1s
// loop), so counting evaluations would shrink the wall-clock window
// under heavy polling.
const (
	lagWarnAfter          = 2 * time.Second
	lagCriticalAfter      = 4 * time.Second
	detachedCriticalAfter = 3 * time.Second
)

// RegisterHealth installs the replica's invariant probes on m.
//
//   - replica.lag (RB-REPLICA-LAG): the visible LSN must chase the
//     master's durable watermark. Lag that keeps growing while the
//     visible LSN stands still means the apply side is wedged, not
//     merely that writes are fast.
//   - replica.stream (RB-REPLICA-STREAM): the replica should hold an
//     active subscription; detached is a warning while the watchdog
//     resubscribes and critical once it persists.
func (r *Replica) RegisterHealth(m *health.Monitor) {
	var lastLag, lastVisible uint64
	var wedgedSince time.Time
	m.AddProbe(func() health.Check {
		st := r.Stats()
		const name, rb = "replica.lag", "RB-REPLICA-LAG"
		ev := map[string]string{
			"visible_lsn": fmt.Sprintf("%d", st.VisibleLSN),
			"durable_lsn": fmt.Sprintf("%d", st.DurableLSN),
			"lag_records": fmt.Sprintf("%d", st.LagRecords),
			"lag_bytes":   fmt.Sprintf("%d", st.LagBytes),
		}
		wedged := st.LagRecords > 0 && st.LagRecords > lastLag &&
			st.VisibleLSN == lastVisible && lastVisible != 0
		lastLag, lastVisible = st.LagRecords, st.VisibleLSN
		if !wedged {
			wedgedSince = time.Time{}
			return health.Checkf(name, rb, health.StatusOK, ev,
				"visible %d, lag %d records", st.VisibleLSN, st.LagRecords)
		}
		if wedgedSince.IsZero() {
			wedgedSince = time.Now()
		}
		held := time.Since(wedgedSince)
		ev["wedged_for"] = held.Round(time.Millisecond).String()
		switch {
		case held >= lagCriticalAfter:
			return health.Checkf(name, rb, health.StatusCritical, ev,
				"lag grew to %d records with a frozen visible LSN for %s; apply is wedged", st.LagRecords, held.Round(time.Second))
		case held >= lagWarnAfter:
			return health.Checkf(name, rb, health.StatusWarn, ev,
				"lag growing while visible LSN stalls (%s)", held.Round(time.Second))
		}
		return health.Checkf(name, rb, health.StatusOK, ev,
			"visible %d, lag %d records (stalling %s)", st.VisibleLSN, st.LagRecords, held.Round(time.Millisecond))
	})

	var detachedSince time.Time
	m.AddProbe(func() health.Check {
		st := r.Stats()
		const name, rb = "replica.stream", "RB-REPLICA-STREAM"
		ev := map[string]string{
			"subscribed":     fmt.Sprintf("%t", st.Subscribed),
			"stream_batches": fmt.Sprintf("%d", st.StreamBatches),
			"ckpt_resyncs":   fmt.Sprintf("%d", st.CkptResyncs),
		}
		if st.Subscribed {
			detachedSince = time.Time{}
			return health.Checkf(name, rb, health.StatusOK, ev,
				"subscribed, %d frames", st.StreamBatches)
		}
		if detachedSince.IsZero() {
			detachedSince = time.Now()
		}
		held := time.Since(detachedSince)
		ev["detached_for"] = held.Round(time.Millisecond).String()
		if held >= detachedCriticalAfter {
			return health.Checkf(name, rb, health.StatusCritical, ev,
				"push stream detached for %s; resubscription is failing", held.Round(time.Second))
		}
		return health.Checkf(name, rb, health.StatusWarn, ev,
			"push stream detached; watchdog resubscribing")
	})
}
