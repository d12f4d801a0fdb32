package logstore

import (
	"fmt"
	"time"

	"taurus/internal/health"
)

// SetHealth attaches the monitor that answers MsgPing status and
// MsgHealthReport. Pair with RegisterHealth, which installs the store's
// invariant probes on it.
func (s *Store) SetHealth(m *health.Monitor) { s.health = m }

// healthReport builds the MsgHealthReport payload. Without a monitor it
// still identifies the node, so a bare test store answers sensibly.
func (s *Store) healthReport() health.Report {
	if s.health == nil {
		return health.Report{Node: s.name, Role: "logstore",
			Time: time.Now(), Ready: true}
	}
	return s.health.Report()
}

// Durations a degrading condition must persist before a verdict
// escalates. Time-based, not probe-count-based: evaluation cadence is
// whatever pollers drive (/health, /ready, heartbeat responder, the 1s
// loop), so counting evaluations would shrink the wall-clock window
// under heavy polling.
const (
	degradeWarnAfter     = 2 * time.Second
	degradeCriticalAfter = 4 * time.Second
)

// RegisterHealth installs the Log Store's invariant probes on m. Probes
// compare successive NodeStats snapshots, so every "stuck" verdict
// requires the condition to hold across real time, not one noisy
// sample:
//
//   - logstore.stream (RB-STREAM-STALL): with subscribers attached, the
//     slowest subscriber's lag must not grow monotonically while the
//     durable LSN also advances — that shape means the push stream is
//     not draining, not merely that writes are bursty.
func (s *Store) RegisterHealth(m *health.Monitor) {
	// growSince marks when the stream lag was first observed growing
	// under an advancing durable LSN; any non-growing sample resets it.
	var lastLag, lastDurable uint64
	var growSince time.Time
	m.AddProbe(func() health.Check {
		st := s.NodeStats()
		const name, rb = "logstore.stream", "RB-STREAM-STALL"
		ev := map[string]string{
			"subscribers": fmt.Sprintf("%d", st.Subscribers),
			"stream_lag":  fmt.Sprintf("%d", st.StreamLag),
			"durable_lsn": fmt.Sprintf("%d", st.DurableLSN),
		}
		growing := st.Subscribers > 0 && st.StreamLag > lastLag &&
			st.DurableLSN > lastDurable && lastDurable != 0
		lastLag, lastDurable = st.StreamLag, st.DurableLSN
		if !growing {
			growSince = time.Time{}
			return health.Checkf(name, rb, health.StatusOK, ev,
				"%d subscriber(s), lag %d", st.Subscribers, st.StreamLag)
		}
		if growSince.IsZero() {
			growSince = time.Now()
		}
		held := time.Since(growSince)
		ev["growing_for"] = held.Round(time.Millisecond).String()
		switch {
		case held >= degradeCriticalAfter:
			return health.Checkf(name, rb, health.StatusCritical, ev,
				"stream lag grew for %s; slowest subscriber is not draining", held.Round(time.Second))
		case held >= degradeWarnAfter:
			return health.Checkf(name, rb, health.StatusWarn, ev,
				"stream lag growing for %s", held.Round(time.Second))
		}
		return health.Checkf(name, rb, health.StatusOK, ev,
			"%d subscriber(s), lag %d (growing %s)", st.Subscribers, st.StreamLag, held.Round(time.Millisecond))
	})
}
