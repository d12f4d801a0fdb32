package health

import (
	"sort"
	"sync"
	"time"

	"taurus/internal/obs"
)

// PeerState is the failure detector's verdict for one peer.
type PeerState int

const (
	// PeerAlive: heartbeats are arriving on schedule.
	PeerAlive PeerState = iota
	// PeerSuspect: heartbeats stopped for at least SuspectThreshold (or
	// the phi score spiked far above the learned inter-arrival time).
	PeerSuspect
	// PeerDead: heartbeats stopped for at least 2x SuspectThreshold.
	PeerDead
)

// String renders the state for tables and metrics docs.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	}
	return "unknown"
}

// MarshalJSON encodes the state as its string form.
func (s PeerState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes the string form; unknown strings decode as
// dead so a parse drift never reads as healthy.
func (s *PeerState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"alive"`:
		*s = PeerAlive
	case `"suspect"`:
		*s = PeerSuspect
	default:
		*s = PeerDead
	}
	return nil
}

// phiSuspect is the accrual score above which a peer turns Suspect
// before the hard deadline: the silence is this many times the learned
// inter-arrival EWMA. High enough that a GC pause (phi ~2-3 at 1s
// heartbeats) never trips it.
const phiSuspect = 8.0

// PeerHealth is one peer's row in the cluster view.
type PeerHealth struct {
	Name  string    `json:"name"`
	Role  string    `json:"role"`
	State PeerState `json:"state"`
	// Phi is the accrual suspicion score: seconds of silence divided by
	// the EWMA of heartbeat inter-arrival seconds. ~1 is on schedule.
	Phi float64 `json:"phi"`
	// SilenceSeconds is how long since the last successful pong.
	SilenceSeconds float64 `json:"silence_seconds"`
	// PingStatus is the worst-check status the last pong carried, so an
	// alive-but-degraded peer is visible without the full report.
	PingStatus Status  `json:"ping_status"`
	Pings      uint64  `json:"pings"`
	Failures   uint64  `json:"failures"`
	Report     *Report `json:"report,omitempty"`
}

type peerEntry struct {
	name     string
	role     string
	last     time.Time // last successful pong (tracked-at before the first)
	ewma     float64   // seconds between pongs
	state    PeerState
	status   Status
	pings    uint64
	failures uint64
	report   *Report
}

// Detector is a phi-accrual-style failure detector over heartbeat
// pongs. It is transport-agnostic: a pinger loop (cluster.RunHealthPinger
// over InProc or TCP) calls Observe/ObserveFailure and Sweep; anything
// may call Snapshot. States move Alive -> Suspect at SuspectThreshold of
// silence (or earlier when phi spikes) and Suspect -> Dead at 2x, so a
// killed node is provably Dead within the acceptance deadline; a pong
// from a Suspect/Dead peer revives it to Alive. Transitions are recorded
// to the flight recorder. Safe for concurrent use; nil receiver is inert.
type Detector struct {
	heartbeat time.Duration
	suspect   time.Duration
	events    *obs.EventRing
	now       func() time.Time // injectable clock for tests

	mu    sync.Mutex
	peers map[string]*peerEntry
}

// NewDetector builds a detector. heartbeat is the expected ping period
// (seeds the EWMA); suspect is the silence after which a peer turns
// Suspect, with Dead at twice that. events may be nil.
func NewDetector(heartbeat, suspect time.Duration, events *obs.EventRing) *Detector {
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	if suspect <= 0 {
		suspect = 5 * time.Second
	}
	return &Detector{
		heartbeat: heartbeat,
		suspect:   suspect,
		events:    events,
		now:       time.Now,
		peers:     make(map[string]*peerEntry),
	}
}

// SuspectThreshold returns the configured silence before Suspect.
func (d *Detector) SuspectThreshold() time.Duration {
	if d == nil {
		return 0
	}
	return d.suspect
}

// HeartbeatInterval returns the expected ping period.
func (d *Detector) HeartbeatInterval() time.Duration {
	if d == nil {
		return 0
	}
	return d.heartbeat
}

// Track starts monitoring a peer. The silence clock starts now, so a
// peer that never answers a single ping still walks Alive -> Suspect ->
// Dead. Tracking an already-tracked peer only updates its role (if the
// new one is non-empty). Safe on nil.
func (d *Detector) Track(name, role string) {
	if d == nil || name == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.peers[name]; ok {
		if role != "" {
			p.role = role
		}
		return
	}
	d.peers[name] = &peerEntry{
		name: name, role: role,
		last: d.now(),
		ewma: d.heartbeat.Seconds(),
	}
}

// Forget stops monitoring a peer (e.g. a replica detached cleanly), so
// a detached peer leaves the cluster view instead of reading as alive
// forever. Safe on nil.
func (d *Detector) Forget(name string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.peers, name)
}

// TrackedPeer names one peer a pinger loop should ping.
type TrackedPeer struct {
	Name string
	Role string
}

// Peers lists tracked peers (sorted by name) for the pinger loop. Safe
// on nil.
func (d *Detector) Peers() []TrackedPeer {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TrackedPeer, 0, len(d.peers))
	for _, p := range d.peers {
		out = append(out, TrackedPeer{Name: p.name, Role: p.role})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Observe records a successful pong. role (if non-empty) refines what
// the peer said it is; status is the worst-check status the pong
// carried. Untracked peers are auto-tracked. Safe on nil.
func (d *Detector) Observe(name, role string, status Status) {
	if d == nil || name == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[name]
	if !ok {
		p = &peerEntry{name: name, last: d.now(), ewma: d.heartbeat.Seconds()}
		d.peers[name] = p
	}
	now := d.now()
	interval := now.Sub(p.last).Seconds()
	if p.pings == 0 {
		p.ewma = maxf(interval, d.heartbeat.Seconds())
	} else {
		p.ewma = 0.8*p.ewma + 0.2*interval
	}
	p.last = now
	p.pings++
	p.status = status
	if role != "" {
		p.role = role
	}
	d.transitionLocked(p, d.stateLocked(p, now))
}

// ObserveFailure records a failed ping attempt (connect refused,
// timeout). State stays silence-driven — failures are evidence in the
// snapshot, not an immediate verdict. Safe on nil.
func (d *Detector) ObserveFailure(name string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.peers[name]; ok {
		p.failures++
	}
}

// SetReport caches a peer's full health report (fetched every few
// heartbeats) for the cluster view. Safe on nil.
func (d *Detector) SetReport(name string, r Report) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.peers[name]; ok {
		rc := r
		p.report = &rc
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// stateLocked computes the silence-driven state for p at now.
func (d *Detector) stateLocked(p *peerEntry, now time.Time) PeerState {
	silence := now.Sub(p.last)
	switch {
	case silence >= 2*d.suspect:
		return PeerDead
	case silence >= d.suspect:
		return PeerSuspect
	case d.phiLocked(p, now) >= phiSuspect && silence >= 2*d.heartbeat:
		// Accrual fast path: the peer had a steady rhythm and went far
		// off it — suspect before the hard deadline.
		return PeerSuspect
	}
	return PeerAlive
}

func (d *Detector) phiLocked(p *peerEntry, now time.Time) float64 {
	base := maxf(p.ewma, 1e-3)
	return now.Sub(p.last).Seconds() / base
}

// transitionLocked applies a state change, emitting the flight-recorder
// event.
func (d *Detector) transitionLocked(p *peerEntry, next PeerState) {
	if next == p.state {
		return
	}
	prev := p.state
	p.state = next
	d.events.Record("peer.state", "%s (%s): %s -> %s (silence=%.2fs phi=%.1f)",
		p.name, p.role, prev, next, d.now().Sub(p.last).Seconds(), d.phiLocked(p, d.now()))
}

// Sweep re-evaluates every peer's state against the clock. The pinger
// calls it once per heartbeat tick so Suspect/Dead transitions fire even
// when a peer is totally silent. Safe on nil.
func (d *Detector) Sweep() {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	for _, p := range d.peers {
		d.transitionLocked(p, d.stateLocked(p, now))
	}
}

// Snapshot sweeps and returns every peer's health row, sorted by name.
// Safe on nil.
func (d *Detector) Snapshot() []PeerHealth {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	out := make([]PeerHealth, 0, len(d.peers))
	for _, p := range d.peers {
		d.transitionLocked(p, d.stateLocked(p, now))
		ph := PeerHealth{
			Name: p.name, Role: p.role, State: p.state,
			Phi:            d.phiLocked(p, now),
			SilenceSeconds: now.Sub(p.last).Seconds(),
			PingStatus:     p.status,
			Pings:          p.pings,
			Failures:       p.failures,
		}
		if p.report != nil {
			rc := *p.report
			ph.Report = &rc
		}
		out = append(out, ph)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// setNow injects a fake clock (tests only).
func (d *Detector) setNow(now func() time.Time) { d.now = now }
