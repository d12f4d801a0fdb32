package sal

import (
	"fmt"
	"time"

	"taurus/internal/health"
)

// Durations after which a pipeline with in-flight windows and a frozen
// durable LSN is reported. Group-commit fsyncs complete in milliseconds,
// so multi-second silence under in-flight load is a wedged Log Store
// quorum, not burstiness.
const (
	stuckWarnAfter     = 5 * time.Second
	stuckCriticalAfter = 15 * time.Second
)

// Durations a saturated-and-stalled apply backlog must persist before
// the verdict escalates. Time-based, not probe-count-based: probe
// evaluation cadence is whatever pollers drive (/health, /ready, the
// heartbeat responder, the 1s loop), so counting evaluations would
// shrink the wall-clock window under heavy polling.
const (
	backlogWarnAfter     = 2 * time.Second
	backlogCriticalAfter = 4 * time.Second
)

// RegisterHealth installs the write pipeline's invariant probes on m.
//
//   - pipeline.progress (RB-PIPELINE-STUCK): while windows are in
//     flight the durable LSN must advance. Verdicts are time-based (no
//     progress for stuckWarnAfter / stuckCriticalAfter), so a single
//     slow fsync never trips it but a wedged Log Store quorum does.
//   - pipeline.poisoned (RB-PIPELINE-POISONED): a pipeline poisoned by a
//     sticky storage error is critical immediately — writes fail until
//     the storage fault is repaired.
//   - pipeline.apply_backlog (RB-APPLY-BACKLOG): the largest per-slice
//     apply backlog vs the ApplyBacklogWindows bound. Sitting at the
//     bound is backpressure by design; the check fires only when a
//     saturated slice's apply frontier also stopped moving — durable
//     batches exist that no Page Store is absorbing.
func (s *SAL) RegisterHealth(m *health.Monitor) {
	var stuckSince time.Time
	var lastDurable uint64
	m.AddProbe(func() health.Check {
		st := s.Stats()
		const name, rb = "pipeline.progress", "RB-PIPELINE-STUCK"
		ev := map[string]string{
			"in_flight":   fmt.Sprintf("%d", st.InFlightWindows),
			"durable_lsn": fmt.Sprintf("%d", st.DurableLSN),
			"pending":     fmt.Sprintf("%d", st.PendingRecords),
		}
		stuck := st.InFlightWindows > 0 && st.DurableLSN == lastDurable
		lastDurable = st.DurableLSN
		if !stuck {
			stuckSince = time.Time{}
			return health.Checkf(name, rb, health.StatusOK, ev,
				"durable %d, %d window(s) in flight", st.DurableLSN, st.InFlightWindows)
		}
		if stuckSince.IsZero() {
			stuckSince = time.Now()
		}
		held := time.Since(stuckSince)
		ev["stuck_for"] = held.Round(time.Millisecond).String()
		switch {
		case held >= stuckCriticalAfter:
			return health.Checkf(name, rb, health.StatusCritical, ev,
				"durable LSN frozen at %d for %s with %d window(s) in flight; Log Store quorum is not acking", st.DurableLSN, held.Round(time.Second), st.InFlightWindows)
		case held >= stuckWarnAfter:
			return health.Checkf(name, rb, health.StatusWarn, ev,
				"no durable progress for %s with windows in flight", held.Round(time.Second))
		}
		return health.Checkf(name, rb, health.StatusOK, ev,
			"durable %d, awaiting acks (%s)", st.DurableLSN, held.Round(time.Millisecond))
	})

	m.AddProbe(func() health.Check {
		const name, rb = "pipeline.poisoned", "RB-PIPELINE-POISONED"
		if err := s.sticky(); err != nil {
			return health.Checkf(name, rb, health.StatusCritical, map[string]string{"error": err.Error()},
				"pipeline poisoned by a sticky storage error: %v", err)
		}
		return health.Checkf(name, rb, health.StatusOK, nil, "pipeline not poisoned")
	})

	limit := int64(s.cfg.ApplyBacklogWindows)
	// lastApplied tracks each slice's applied LSN so "saturated and not
	// draining" is distinguishable from plain backpressure.
	lastApplied := make(map[uint32]uint64)
	var satSince time.Time
	m.AddProbe(func() health.Check {
		st := s.Stats()
		const name, rb = "pipeline.apply_backlog", "RB-APPLY-BACKLOG"
		var maxBacklog int64
		saturatedStalled := false
		for _, sl := range st.Slices {
			maxBacklog = max(maxBacklog, sl.ApplyBacklog)
			if sl.ApplyBacklog >= limit && sl.AppliedLSN == lastApplied[sl.Slice] {
				saturatedStalled = true
			}
			lastApplied[sl.Slice] = sl.AppliedLSN
		}
		ev := map[string]string{
			"max_backlog": fmt.Sprintf("%d", maxBacklog),
			"limit":       fmt.Sprintf("%d", limit),
		}
		if !saturatedStalled {
			satSince = time.Time{}
			return health.Checkf(name, rb, health.StatusOK, ev,
				"max backlog %d of %d", maxBacklog, limit)
		}
		if satSince.IsZero() {
			satSince = time.Now()
		}
		held := time.Since(satSince)
		ev["stalled_for"] = held.Round(time.Millisecond).String()
		switch {
		case held >= backlogCriticalAfter:
			return health.Checkf(name, rb, health.StatusCritical, ev,
				"apply backlog pinned at the %d-batch bound with a frozen apply frontier for %s; Page Stores are not absorbing", limit, held.Round(time.Second))
		case held >= backlogWarnAfter:
			return health.Checkf(name, rb, health.StatusWarn, ev,
				"apply backlog saturated and not draining for %s", held.Round(time.Second))
		}
		return health.Checkf(name, rb, health.StatusOK, ev,
			"max backlog %d of %d, frontier stalled %s", maxBacklog, limit, held.Round(time.Millisecond))
	})
}
