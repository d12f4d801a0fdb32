package cluster

import (
	"fmt"
	"testing"
	"time"

	"taurus/internal/health"
)

// TestHealthCodecRoundTrips checks the ping and report wire messages
// survive encode/decode, including evidence maps and non-OK statuses.
func TestHealthCodecRoundTrips(t *testing.T) {
	reqs := []any{
		&PingReq{Node: "frontend", Seq: 42},
		&HealthReportReq{Node: "frontend"},
		&HealthReportReq{},
	}
	for _, req := range reqs {
		mt, body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(mt, body)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", req) {
			t.Errorf("round trip %T: %+v vs %+v", got, got, req)
		}
	}

	now := time.Unix(1_700_000_000, 123_456_789)
	resps := []any{
		&PingResp{Node: "ps-1", Role: "pagestore", Seq: 42, Status: health.StatusWarn},
		&HealthReportResp{Report: health.Report{
			Node: "ps-1", Role: "pagestore", Time: now,
			UptimeSeconds: 12.5, Ready: true,
			Checks: []health.Check{
				{Name: "pagestore.checkpoint_age", Status: health.StatusCritical,
					Detail:   "checkpoint 5m old",
					Evidence: map[string]string{"age": "5m", "interval": "1m"},
					Runbook:  "RB-CHECKPOINT-AGE"},
				{Name: "pagestore.version_pin", Status: health.StatusOK},
			},
		}},
		&HealthReportResp{Report: health.Report{Node: "bare", Time: now}},
	}
	for _, resp := range resps {
		mt, body, err := EncodeResponse(resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(mt, body)
		if err != nil {
			t.Fatalf("%T: %v", resp, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", resp) {
			t.Errorf("round trip %T:\n got %+v\nwant %+v", resp, got, resp)
		}
		// Truncations must error, not panic.
		for cut := 0; cut < len(body); cut++ {
			_, _ = DecodeResponse(mt, body[:cut])
		}
	}
}

// healthEcho answers pings and report fetches like a role server.
type healthEcho struct {
	node, role string
	status     health.Status
}

func (h *healthEcho) Handle(req any) (any, error) {
	switch m := req.(type) {
	case *PingReq:
		return &PingResp{Node: h.node, Role: h.role, Seq: m.Seq, Status: h.status}, nil
	case *HealthReportReq:
		return &HealthReportResp{Report: health.Report{
			Node: h.node, Role: h.role, Time: time.Now(), Ready: true,
			Checks: []health.Check{{Name: "echo.check", Status: h.status}},
		}}, nil
	}
	return nil, fmt.Errorf("healthEcho: bad request %T", req)
}

// TestRunHealthPinger drives the pinger over an InProc transport: an
// answering peer stays Alive with its role refined and its report
// cached; an unregistered peer accumulates failures and dies.
func TestRunHealthPinger(t *testing.T) {
	tr := NewInProc()
	tr.Register("ps-1", &healthEcho{node: "ps-1", role: "pagestore", status: health.StatusOK})

	d := health.NewDetector(5*time.Millisecond, 40*time.Millisecond, nil)
	d.Track("ps-1", "")
	d.Track("ghost", "pagestore")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// ReportEvery 2 so the report fetch happens fast.
		RunHealthPinger(tr, d, "frontend", stop, PingerOptions{ReportEvery: 2})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var alive, deadWithReport bool
		for _, p := range d.Snapshot() {
			if p.Name == "ps-1" && p.State == health.PeerAlive &&
				p.Role == "pagestore" && p.Report != nil {
				alive = true
			}
			if p.Name == "ghost" && p.State == health.PeerDead && p.Failures > 0 {
				deadWithReport = true
			}
		}
		if alive && deadWithReport {
			close(stop)
			<-done
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	t.Fatalf("pinger never converged: %+v", d.Snapshot())
}

// blockingTransport answers pings for every node except the ones in
// hang, whose calls park until the transport is released.
type blockingTransport struct {
	hang    map[string]bool
	release chan struct{}
}

func (b *blockingTransport) Call(node string, req any) (any, error) {
	if b.hang[node] {
		<-b.release
		return nil, fmt.Errorf("%s: released", node)
	}
	if m, ok := req.(*PingReq); ok {
		return &PingResp{Node: node, Role: "pagestore", Seq: m.Seq}, nil
	}
	return &HealthReportResp{Report: health.Report{Node: node, Ready: true}}, nil
}

// TestRunHealthPingerHungPeer is the partition/SIGSTOP regression: a
// peer whose transport call blocks forever (instead of failing fast)
// must not stall the loop — the healthy peer keeps being pinged and
// stays Alive, while the hung peer's silence walks it to Dead.
func TestRunHealthPingerHungPeer(t *testing.T) {
	tr := &blockingTransport{hang: map[string]bool{"hung": true}, release: make(chan struct{})}
	d := health.NewDetector(5*time.Millisecond, 40*time.Millisecond, nil)
	d.Track("ok", "pagestore")
	d.Track("hung", "pagestore")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunHealthPinger(tr, d, "frontend", stop, PingerOptions{})
	}()
	defer func() {
		close(stop)
		close(tr.release) // unpark the hung call's goroutine
		<-done
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var okAlive, hungDead bool
		for _, p := range d.Snapshot() {
			// The hung peer answered zero pings, so only a concurrent
			// pinger can have kept "ok" alive past the Dead deadline.
			if p.Name == "ok" && p.State == health.PeerAlive && p.Pings > 20 {
				okAlive = true
			}
			if p.Name == "hung" && p.State == health.PeerDead {
				hungDead = true
			}
		}
		if okAlive && hungDead {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("hung peer stalled the pinger: %+v", d.Snapshot())
}
