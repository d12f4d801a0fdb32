// Package health is the cluster health layer: typed invariant checks
// evaluated by per-role monitors, a phi-accrual-style failure detector
// fed by heartbeats, and the aggregation types behind /healthz, /ready,
// /cluster/health, and the taurus-doctor CLI.
//
// The package is a leaf (it imports only obs and the stdlib) so every
// tier — SAL, Log Store, Page Store, replica — can register probes
// without import cycles. Transport wiring (MsgPing/MsgHealthReport)
// lives in the cluster package, which imports this one.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"taurus/internal/obs"
)

// Status is a check's verdict. Ordering matters: higher is worse.
type Status int

const (
	// StatusOK means the invariant holds.
	StatusOK Status = iota
	// StatusWarn means the invariant is degrading: an operator should
	// look, the node still serves.
	StatusWarn
	// StatusCritical means the invariant is violated: the node (or a
	// dependency) needs intervention; readiness drops.
	StatusCritical
)

// String renders the status for tables and logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusWarn:
		return "warn"
	case StatusCritical:
		return "critical"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// MarshalJSON encodes the status as its string form.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes the string form (the doctor parses reports
// fetched over HTTP). Unknown strings decode as critical — an unknown
// verdict must not read as healthy.
func (s *Status) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"ok"`:
		*s = StatusOK
	case `"warn"`:
		*s = StatusWarn
	default:
		*s = StatusCritical
	}
	return nil
}

// Worse returns the worse of two statuses.
func Worse(a, b Status) Status {
	if b > a {
		return b
	}
	return a
}

// Check is one evaluated invariant: what was checked, the verdict, the
// numbers behind it, and the runbook key an operator follows when it is
// not OK.
type Check struct {
	// Name identifies the invariant, dotted by subsystem
	// (e.g. "pipeline.progress", "replica.lag").
	Name   string `json:"name"`
	Status Status `json:"status"`
	// Detail is the one-line human summary.
	Detail string `json:"detail,omitempty"`
	// Evidence carries the values the verdict was computed from, so a
	// non-OK check is debuggable from the report alone.
	Evidence map[string]string `json:"evidence,omitempty"`
	// Runbook keys the operator action table in the README
	// (e.g. "RB-PIPELINE-STUCK").
	Runbook string `json:"runbook,omitempty"`
}

// Checkf builds a Check with a formatted detail line.
func Checkf(name, runbook string, st Status, ev map[string]string, format string, args ...any) Check {
	return Check{Name: name, Status: st, Detail: fmt.Sprintf(format, args...),
		Evidence: ev, Runbook: runbook}
}

// Report is one node's full health view at one instant.
type Report struct {
	Node          string    `json:"node"`
	Role          string    `json:"role"`
	Time          time.Time `json:"time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Ready         bool      `json:"ready"`
	Checks        []Check   `json:"checks"`
}

// Worst returns the worst status across the report's checks.
func (r Report) Worst() Status {
	w := StatusOK
	for _, c := range r.Checks {
		w = Worse(w, c.Status)
	}
	return w
}

// Probe evaluates one invariant. Probes run under the monitor's lock on
// the poller's goroutine (HTTP handler, heartbeat responder, or
// background loop), so they must be fast and must not block on I/O:
// read stats snapshots, compare, return. Probes that detect "no
// progress" keep their previous observation in a closure.
type Probe func() Check

// Monitor owns one node's probe set and evaluation cache. Evaluations
// are rate-limited (MinEvalInterval) so a polling storm costs one probe
// run per window; status transitions are recorded to the flight
// recorder. All methods are safe for concurrent use and safe on a nil
// receiver (a nil monitor reports an empty, ready, OK node).
type Monitor struct {
	node  string
	role  string
	start time.Time

	mu       sync.Mutex
	probes   []Probe
	minEval  time.Duration
	lastEval time.Time
	last     []Check
	prev     map[string]Status
	ready    func() bool

	events *obs.EventRing

	loopStop chan struct{}
	loopDone chan struct{}
}

// MonitorOptions configures NewMonitor. Zero values select defaults.
type MonitorOptions struct {
	// Events receives a flight-recorder event on every check status
	// transition. Nil is inert.
	Events *obs.EventRing
	// MinEvalInterval rate-limits probe evaluation (default 500ms):
	// polls inside the window serve the cached checks.
	MinEvalInterval time.Duration
}

// NewMonitor builds a monitor for one node of one role.
func NewMonitor(node, role string, opts MonitorOptions) *Monitor {
	if opts.MinEvalInterval <= 0 {
		opts.MinEvalInterval = 500 * time.Millisecond
	}
	return &Monitor{
		node: node, role: role, start: time.Now(),
		minEval: opts.MinEvalInterval,
		prev:    make(map[string]Status),
		events:  opts.Events,
	}
}

// Node returns the node name. Safe on nil.
func (m *Monitor) Node() string {
	if m == nil {
		return ""
	}
	return m.node
}

// Role returns the role name. Safe on nil.
func (m *Monitor) Role() string {
	if m == nil {
		return ""
	}
	return m.role
}

// AddProbe registers one invariant probe. Safe on nil (dropped).
func (m *Monitor) AddProbe(p Probe) {
	if m == nil || p == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.probes = append(m.probes, p)
}

// SetReady installs the readiness gate (e.g. "replica bootstrap
// finished"). Without one the node is gated only on its checks. Safe on
// nil.
func (m *Monitor) SetReady(f func() bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ready = f
}

// evaluate runs every probe if the cache expired. Caller holds m.mu.
func (m *Monitor) evaluate() {
	if time.Since(m.lastEval) < m.minEval && m.lastEval != (time.Time{}) {
		return
	}
	m.lastEval = time.Now()
	checks := make([]Check, 0, len(m.probes))
	for _, p := range m.probes {
		c := p()
		checks = append(checks, c)
		if prev, seen := m.prev[c.Name]; !seen || prev != c.Status {
			if seen || c.Status != StatusOK {
				m.events.Record("health.check", "%s %s: %s -> %s (%s)",
					m.node, c.Name, m.prev[c.Name], c.Status, c.Detail)
			}
			m.prev[c.Name] = c.Status
		}
	}
	m.last = checks
}

// Report evaluates (cache permitting) and returns the node's health
// report. Safe on nil (empty ready report).
func (m *Monitor) Report() Report {
	if m == nil {
		return Report{Ready: true, Time: time.Now()}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evaluate()
	checks := make([]Check, len(m.last))
	copy(checks, m.last)
	r := Report{
		Node: m.node, Role: m.role, Time: time.Now(),
		UptimeSeconds: time.Since(m.start).Seconds(),
		Checks:        checks,
	}
	r.Ready = m.readyLocked(r)
	return r
}

func (m *Monitor) readyLocked(r Report) bool {
	if m.ready != nil && !m.ready() {
		return false
	}
	return r.Worst() != StatusCritical
}

// Worst evaluates (cache permitting) and returns the worst check
// status. Safe on nil (OK).
func (m *Monitor) Worst() Status {
	if m == nil {
		return StatusOK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evaluate()
	w := StatusOK
	for _, c := range m.last {
		w = Worse(w, c.Status)
	}
	return w
}

// Ready reports readiness: the gate (if any) passes and no check is
// critical. Safe on nil (ready).
func (m *Monitor) Ready() bool {
	if m == nil {
		return true
	}
	return m.Report().Ready
}

// StartLoop evaluates the probes on an interval in the background, so
// transitions land in the flight recorder and metrics even when nobody
// polls the endpoints. Stop with StopLoop. Safe on nil.
func (m *Monitor) StartLoop(interval time.Duration) {
	if m == nil || interval <= 0 {
		return
	}
	m.mu.Lock()
	if m.loopStop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.loopStop, m.loopDone = stop, done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Worst()
			}
		}
	}()
}

// StopLoop stops the background evaluation loop. Safe on nil and
// without a running loop.
func (m *Monitor) StopLoop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	stop, done := m.loopStop, m.loopDone
	m.loopStop, m.loopDone = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ClusterView is the frontend's aggregated fleet health: its own report
// plus every tracked peer's detector state and last fetched report —
// the payload of GET /cluster/health and the doctor's input.
type ClusterView struct {
	Node  string       `json:"node"`
	Time  time.Time    `json:"time"`
	Self  Report       `json:"self"`
	Peers []PeerHealth `json:"peers"`
}

// Worst folds the whole view to one status: the self report, every
// peer's detector state (Suspect → warn, Dead → critical), the status
// its last pong carried, and its last report's checks.
func (v ClusterView) Worst() Status {
	w := v.Self.Worst()
	for _, p := range v.Peers {
		switch p.State {
		case PeerSuspect:
			w = Worse(w, StatusWarn)
		case PeerDead:
			w = Worse(w, StatusCritical)
		}
		w = Worse(w, p.PingStatus)
		if p.Report != nil {
			w = Worse(w, p.Report.Worst())
		}
	}
	return w
}

// sortEvidence renders evidence deterministically for logs/tables.
func sortEvidence(ev map[string]string) []string {
	keys := make([]string, 0, len(ev))
	for k := range ev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k+"="+ev[k])
	}
	return out
}

// FormatCheck renders one check as a single log-friendly line.
func FormatCheck(c Check) string {
	s := fmt.Sprintf("%s %s", c.Name, c.Status)
	if c.Detail != "" {
		s += " " + c.Detail
	}
	for _, kv := range sortEvidence(c.Evidence) {
		s += " " + kv
	}
	if c.Runbook != "" && c.Status != StatusOK {
		s += " runbook=" + c.Runbook
	}
	return s
}
