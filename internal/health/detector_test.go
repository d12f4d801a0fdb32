package health

import (
	"testing"
	"time"

	"taurus/internal/obs"
)

// fakeClock drives a Detector deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func attach(d *Detector, c *fakeClock) *fakeClock {
	d.setNow(c.now)
	return c
}

func peerByName(t *testing.T, d *Detector, name string) PeerHealth {
	t.Helper()
	for _, p := range d.Snapshot() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("peer %q not in snapshot", name)
	return PeerHealth{}
}

// TestDetectorDeadlines walks one peer Alive -> Suspect -> Dead on the
// hard silence deadlines, then revives it with a single pong.
func TestDetectorDeadlines(t *testing.T) {
	events := obs.NewEventRing(64)
	d := NewDetector(time.Second, 5*time.Second, events)
	clk := attach(d, newFakeClock())
	d.Track("ps-1", "pagestore")

	d.Observe("ps-1", "pagestore", StatusOK)
	if st := peerByName(t, d, "ps-1").State; st != PeerAlive {
		t.Fatalf("after pong: %v, want alive", st)
	}

	clk.advance(4 * time.Second)
	d.Sweep()
	if st := peerByName(t, d, "ps-1").State; st != PeerAlive {
		t.Fatalf("at 4s silence: %v, want alive", st)
	}

	clk.advance(1500 * time.Millisecond) // 5.5s of silence
	d.Sweep()
	if st := peerByName(t, d, "ps-1").State; st != PeerSuspect {
		t.Fatalf("at 5.5s silence: %v, want suspect", st)
	}

	clk.advance(5 * time.Second) // 10.5s >= 2x suspect
	d.Sweep()
	p := peerByName(t, d, "ps-1")
	if p.State != PeerDead {
		t.Fatalf("at 10.5s silence: %v, want dead", p.State)
	}
	if p.SilenceSeconds < 10 {
		t.Errorf("silence = %.1fs, want >= 10", p.SilenceSeconds)
	}

	// One pong revives a dead peer.
	d.Observe("ps-1", "pagestore", StatusWarn)
	p = peerByName(t, d, "ps-1")
	if p.State != PeerAlive {
		t.Fatalf("after revival pong: %v, want alive", p.State)
	}
	if p.PingStatus != StatusWarn {
		t.Errorf("ping status = %v, want warn", p.PingStatus)
	}

	// Every transition (alive->suspect->dead->alive) hit the recorder.
	var transitions int
	for _, e := range events.Events() {
		if e.Kind == "peer.state" {
			transitions++
		}
	}
	if transitions != 3 {
		t.Errorf("recorded %d peer.state events, want 3", transitions)
	}
}

// TestDetectorSilentFromTrack checks a peer that never answers a single
// ping still walks to Dead: Track seeds the silence clock.
func TestDetectorSilentFromTrack(t *testing.T) {
	d := NewDetector(time.Second, 5*time.Second, nil)
	clk := attach(d, newFakeClock())
	d.Track("log-9", "logstore")
	clk.advance(11 * time.Second)
	d.Sweep()
	if st := peerByName(t, d, "log-9").State; st != PeerDead {
		t.Fatalf("silent-from-track peer: %v, want dead", st)
	}
}

// TestDetectorPhiFastPath checks the accrual shortcut: a peer with a
// learned steady rhythm turns Suspect when phi spikes, well before the
// hard deadline.
func TestDetectorPhiFastPath(t *testing.T) {
	// Suspect threshold is a full minute, so only phi can trip early.
	d := NewDetector(time.Second, time.Minute, nil)
	clk := attach(d, newFakeClock())
	d.Track("rep-1", "replica")
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		d.Observe("rep-1", "replica", StatusOK)
	}
	// 9s of silence: phi ~9 over a ~1s EWMA, and >= 2x heartbeat.
	clk.advance(9 * time.Second)
	d.Sweep()
	p := peerByName(t, d, "rep-1")
	if p.State != PeerSuspect {
		t.Fatalf("phi fast path: state %v (phi %.1f), want suspect", p.State, p.Phi)
	}
	if p.Phi < phiSuspect {
		t.Errorf("phi = %.1f, want >= %.0f", p.Phi, phiSuspect)
	}
}

// TestDetectorObserveFailureDoesNotKill checks failed ping attempts are
// evidence only: a peer that answers (slowly) through failures stays
// Alive because state is silence-driven.
func TestDetectorObserveFailureDoesNotKill(t *testing.T) {
	d := NewDetector(time.Second, 5*time.Second, nil)
	clk := attach(d, newFakeClock())
	d.Track("ps-2", "pagestore")
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		d.ObserveFailure("ps-2")
		d.Observe("ps-2", "pagestore", StatusOK)
	}
	p := peerByName(t, d, "ps-2")
	if p.State != PeerAlive {
		t.Fatalf("state = %v, want alive", p.State)
	}
	if p.Failures != 5 || p.Pings != 5 {
		t.Errorf("failures/pings = %d/%d, want 5/5", p.Failures, p.Pings)
	}
}

// TestDetectorForget checks a cleanly-detached peer leaves the
// snapshot and the pinger's peer list.
func TestDetectorForget(t *testing.T) {
	d := NewDetector(time.Second, 5*time.Second, nil)
	attach(d, newFakeClock())
	d.Track("rep-1", "replica")
	d.Track("rep-2", "replica")
	d.Forget("rep-1")
	if got := len(d.Peers()); got != 1 {
		t.Fatalf("%d tracked peers after Forget, want 1", got)
	}
	if d.Peers()[0].Name != "rep-2" {
		t.Errorf("wrong peer survived: %v", d.Peers())
	}
}

// TestDetectorRoleRebindRemovesStaleSeries checks the placeholder role
// is replaced, not kept beside the real one, when the first pong
// refines the peer's role, and that the pong revives the peer.
func TestDetectorRoleRebindRemovesStaleSeries(t *testing.T) {
	d := NewDetector(time.Second, 5*time.Second, nil)
	clk := attach(d, newFakeClock())
	d.Track("n-1", "peer")
	// Silence long enough to go Dead under the placeholder role, then a
	// pong that both revives and renames.
	clk.advance(11 * time.Second)
	d.Sweep()
	if p := peerByName(t, d, "n-1"); p.Role != "peer" || p.State != PeerDead {
		t.Fatalf("before the pong: %+v, want role peer, dead", p)
	}
	d.Observe("n-1", "pagestore", StatusOK)
	if got := d.Snapshot(); len(got) != 1 || got[0].Role != "pagestore" || got[0].State != PeerAlive {
		t.Errorf("after the pong: %+v, want one alive pagestore peer", got)
	}
}

// TestDetectorNil checks every method is inert on a nil receiver — the
// replica side holds a nil detector.
func TestDetectorNil(t *testing.T) {
	var d *Detector
	d.Track("x", "y")
	d.Observe("x", "y", StatusOK)
	d.ObserveFailure("x")
	d.SetReport("x", Report{})
	d.Forget("x")
	d.Sweep()
	if d.Snapshot() != nil || d.Peers() != nil {
		t.Error("nil detector returned non-nil slices")
	}
	if d.SuspectThreshold() != 0 || d.HeartbeatInterval() != 0 {
		t.Error("nil detector returned non-zero durations")
	}
}
