package health

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taurus/internal/obs"
)

// newTestMonitor builds a monitor whose evaluation cache never serves
// stale results (1ns window), so each Report() re-runs the probes.
func newTestMonitor(events *obs.EventRing) *Monitor {
	return NewMonitor("node-1", "pagestore", MonitorOptions{
		Events: events, MinEvalInterval: time.Nanosecond,
	})
}

// TestMonitorReportAndTransitions checks probe evaluation, the status
// fold, readiness, and that transitions hit the flight recorder.
func TestMonitorReportAndTransitions(t *testing.T) {
	events := obs.NewEventRing(64)
	m := newTestMonitor(events)
	st := StatusOK
	m.AddProbe(func() Check {
		return Checkf("test.flap", "RB-TEST", st, map[string]string{"k": "v"}, "status is %s", st)
	})
	m.AddProbe(func() Check {
		return Checkf("test.steady", "RB-TEST", StatusOK, nil, "fine")
	})

	r := m.Report()
	if len(r.Checks) != 2 || r.Worst() != StatusOK || !r.Ready {
		t.Fatalf("healthy report wrong: %+v", r)
	}
	if r.Node != "node-1" || r.Role != "pagestore" {
		t.Errorf("identity wrong: %q %q", r.Node, r.Role)
	}

	st = StatusCritical
	time.Sleep(time.Millisecond) // step past the 1ns eval cache
	r = m.Report()
	if r.Worst() != StatusCritical || r.Ready {
		t.Fatalf("critical report wrong: worst=%v ready=%v", r.Worst(), r.Ready)
	}

	var sawTransition bool
	for _, e := range events.Events() {
		if e.Kind == "health.check" && strings.Contains(e.Detail, "test.flap") &&
			strings.Contains(e.Detail, "-> critical") {
			sawTransition = true
		}
	}
	if !sawTransition {
		t.Error("ok -> critical transition not in the flight recorder")
	}

	st = StatusOK
	time.Sleep(time.Millisecond)
	if m.Worst() != StatusOK || !m.Ready() {
		t.Error("monitor did not recover with the probe")
	}
}

// TestMonitorEvalCache checks a polling storm costs one probe run per
// MinEvalInterval window.
func TestMonitorEvalCache(t *testing.T) {
	m := NewMonitor("n", "r", MonitorOptions{MinEvalInterval: time.Hour})
	var runs int
	m.AddProbe(func() Check {
		runs++
		return Checkf("c", "", StatusOK, nil, "ok")
	})
	for i := 0; i < 50; i++ {
		m.Report()
	}
	if runs != 1 {
		t.Errorf("probe ran %d times under the cache window, want 1", runs)
	}
}

// TestMonitorReadyGate checks the explicit readiness gate (bootstrap
// not finished) forces 503 even with all checks OK.
func TestMonitorReadyGate(t *testing.T) {
	m := newTestMonitor(nil)
	bootstrapped := false
	m.SetReady(func() bool { return bootstrapped })
	if m.Ready() {
		t.Fatal("ready before the gate opened")
	}
	rec := httptest.NewRecorder()
	m.ReadyHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ready", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /ready = %d, want 503", rec.Code)
	}
	bootstrapped = true
	rec = httptest.NewRecorder()
	m.ReadyHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ready", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /ready after gate = %d, want 200", rec.Code)
	}
}

// TestHealthzAlways200 checks liveness ignores check status: answering
// at all is the signal.
func TestHealthzAlways200(t *testing.T) {
	m := newTestMonitor(nil)
	m.AddProbe(func() Check { return Checkf("bad", "RB", StatusCritical, nil, "down") })
	rec := httptest.NewRecorder()
	m.HealthzHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"critical"`) {
		t.Errorf("healthz body hides the status: %s", rec.Body.String())
	}
}

// TestClusterViewWorst checks the fold: suspect peers warn, dead peers
// and critical peer checks are critical.
func TestClusterViewWorst(t *testing.T) {
	ok := Report{Checks: []Check{{Name: "a", Status: StatusOK}}}
	cases := []struct {
		name string
		view ClusterView
		want Status
	}{
		{"empty", ClusterView{Self: ok}, StatusOK},
		{"suspect peer", ClusterView{Self: ok,
			Peers: []PeerHealth{{State: PeerSuspect}}}, StatusWarn},
		{"dead peer", ClusterView{Self: ok,
			Peers: []PeerHealth{{State: PeerDead}}}, StatusCritical},
		{"degraded pong", ClusterView{Self: ok,
			Peers: []PeerHealth{{State: PeerAlive, PingStatus: StatusWarn}}}, StatusWarn},
		{"critical peer check", ClusterView{Self: ok,
			Peers: []PeerHealth{{State: PeerAlive,
				Report: &Report{Checks: []Check{{Status: StatusCritical}}}}}}, StatusCritical},
		{"critical self", ClusterView{
			Self: Report{Checks: []Check{{Status: StatusCritical}}}}, StatusCritical},
	}
	for _, c := range cases {
		if got := c.view.Worst(); got != c.want {
			t.Errorf("%s: Worst() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestClusterHandlerStatusCode checks /cluster/health answers 503 only
// once the fold is critical.
func TestClusterHandlerStatusCode(t *testing.T) {
	view := ClusterView{Self: Report{}}
	h := ClusterHandler(func() ClusterView { return view })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy view = %d, want 200", rec.Code)
	}
	view.Peers = []PeerHealth{{Name: "ps-1", State: PeerDead}}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/health", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead-peer view = %d, want 503", rec.Code)
	}
	var got ClusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Peers) != 1 || got.Peers[0].State != PeerDead {
		t.Errorf("view did not round-trip: %+v", got)
	}
}

// TestStatusJSON checks the string encodings and that unknown values
// decode to the unhealthy end of each scale — parse drift between
// doctor and server versions must never read as healthy.
func TestStatusJSON(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusWarn, StatusCritical} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		if err := json.Unmarshal(b, &got); err != nil || got != s {
			t.Errorf("status %v round-tripped to %v (%v)", s, got, err)
		}
	}
	var st Status
	if err := json.Unmarshal([]byte(`"flourishing"`), &st); err != nil || st != StatusCritical {
		t.Errorf("unknown status decoded as %v, want critical", st)
	}
	var ps PeerState
	if err := json.Unmarshal([]byte(`"thriving"`), &ps); err != nil || ps != PeerDead {
		t.Errorf("unknown peer state decoded as %v, want dead", ps)
	}
}

// TestNilMonitor checks the nil receiver contract the role packages
// rely on before SetHealth is called.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.AddProbe(func() Check { return Check{} })
	m.SetReady(func() bool { return false })
	m.StartLoop(time.Second)
	m.StopLoop()
	if m.Worst() != StatusOK || !m.Ready() {
		t.Error("nil monitor is not OK/ready")
	}
	if r := m.Report(); !r.Ready || len(r.Checks) != 0 {
		t.Errorf("nil monitor report: %+v", r)
	}
}

// TestStartLoopRecordsUnpolled checks the background loop lands
// transitions in the recorder with nobody polling the endpoints.
func TestStartLoopRecordsUnpolled(t *testing.T) {
	events := obs.NewEventRing(16)
	m := NewMonitor("n", "r", MonitorOptions{Events: events, MinEvalInterval: time.Nanosecond})
	m.AddProbe(func() Check { return Checkf("c", "RB", StatusWarn, nil, "degraded") })
	m.StartLoop(time.Millisecond)
	defer m.StopLoop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range events.Events() {
			if e.Kind == "health.check" && strings.Contains(e.Detail, "c:") {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background loop never recorded the warn transition")
}
