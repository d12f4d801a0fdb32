package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taurus"
	"taurus/internal/health"
	"taurus/internal/obs"
)

// seedFrontend opens an in-memory deployment with a little data so every
// instrument has observations.
func seedFrontend(t *testing.T, cfg taurus.Config) *taurus.DB {
	t.Helper()
	db, err := taurus.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	stmts := []string{
		`CREATE TABLE obs_t (id BIGINT, v INT, PRIMARY KEY(id))`,
		`INSERT INTO obs_t VALUES (1, 10), (2, 20), (3, 30)`,
		`SELECT SUM(v) FROM obs_t WHERE id > 0`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestFrontendMetricsEndpoint scrapes a live frontend's /metrics and
// checks the exposition is valid Prometheus text carrying the core
// families from every instrumented tier.
func TestFrontendMetricsEndpoint(t *testing.T) {
	db := seedFrontend(t, taurus.Config{})
	mux, err := frontendMux(db, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	families, err := obs.ValidateExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		"taurus_writepath_stage_seconds",
		"taurus_rpc_requests_total",
		"taurus_rpc_latency_seconds",
		"taurus_buffer_hits_total",
		"taurus_buffer_misses_total",
		"taurus_sal_durable_lsn",
		"taurus_logstore_durable_lsn",
		"taurus_pagestore_records_applied_total",
		"taurus_engine_rows_emitted_total",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
}

// TestReplicaMetricsEndpoint checks a replica's own /metrics page: its
// advance-cycle histogram, labeled with its name.
func TestReplicaMetricsEndpoint(t *testing.T) {
	db := seedFrontend(t, taurus.Config{})
	mux, err := frontendMux(db, 1, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, mux, "/replica/1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /replica/1/metrics: %d", rec.Code)
	}
	families, err := obs.ValidateExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if _, ok := families["taurus_replica_refresh_seconds"]; !ok {
		t.Error("family taurus_replica_refresh_seconds missing from replica /metrics")
	}
	if !strings.Contains(rec.Body.String(), `replica="replica-`) {
		t.Error("replica series not labeled with the replica name")
	}
}

// TestStatsEndpointBackwardCompatible checks /stats still serves the
// pre-existing JSON shape.
func TestStatsEndpointBackwardCompatible(t *testing.T) {
	db := seedFrontend(t, taurus.Config{})
	mux, err := frontendMux(db, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, mux, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st frontendStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	if len(st.LogStores) != 3 {
		t.Errorf("LogStores = %d, want 3", len(st.LogStores))
	}
	if len(st.PageStores) == 0 || len(st.BufferPool) == 0 {
		t.Errorf("empty PageStores (%d) or BufferPool (%d)", len(st.PageStores), len(st.BufferPool))
	}
	if st.WritePath.WindowsFlushed == 0 {
		t.Error("WritePath.WindowsFlushed = 0 after inserts")
	}
}

// TestStatsMuxServesPprof checks the profile endpoints ride along on the
// stats listener of every role.
func TestStatsMuxServesPprof(t *testing.T) {
	mux := newStatsMux(nil, obs.NewRegistry(), nil, nil, nil, nil)
	rec := get(t, mux, "/debug/pprof/")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// TestHealthEndpoints checks the frontend mux serves the full health
// surface: liveness, readiness, the check report, the aggregated
// cluster view, and the embedded replica's report.
func TestHealthEndpoints(t *testing.T) {
	db := seedFrontend(t, taurus.Config{})
	mux, err := frontendMux(db, 1, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/healthz", "/ready", "/health", "/cluster/health", "/replica/1/health", "/replica/1/ready", "/replica/1/healthz"} {
		rec := get(t, mux, path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 (%s)", path, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s content type %q", path, ct)
		}
	}

	var rep health.Report
	if err := json.Unmarshal(get(t, mux, "/health").Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Role != "frontend" || !rep.Ready || len(rep.Checks) == 0 {
		t.Errorf("frontend /health: %+v", rep)
	}

	var view health.ClusterView
	if err := json.Unmarshal(get(t, mux, "/cluster/health").Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Peers) == 0 {
		t.Error("/cluster/health has no peers for the embedded fleet")
	}
	for _, p := range view.Peers {
		if p.State != health.PeerAlive {
			t.Errorf("embedded peer %s is %v", p.Name, p.State)
		}
	}

	if err := json.Unmarshal(get(t, mux, "/replica/1/health").Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Role != "replica" {
		t.Errorf("replica /health role = %q", rep.Role)
	}
}

// TestParsePeers checks the -peers flag grammar.
func TestParsePeers(t *testing.T) {
	got := parsePeers("logstore=127.0.0.1:7100, pagestore=127.0.0.1:7000,127.0.0.1:7300 ,")
	want := []clusterPeer{
		{role: "logstore", addr: "127.0.0.1:7100"},
		{role: "pagestore", addr: "127.0.0.1:7000"},
		{role: "peer", addr: "127.0.0.1:7300"},
	}
	if len(got) != len(want) {
		t.Fatalf("parsePeers = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if parsePeers("") != nil {
		t.Error("empty -peers should parse to nil")
	}
}

// TestSlowOpLog checks the threshold gate: statements above it log one
// structured line; below it, nothing.
func TestSlowOpLog(t *testing.T) {
	var buf bytes.Buffer
	db := seedFrontend(t, taurus.Config{
		SlowOpThreshold: time.Nanosecond,
		SlowOpLogger:    log.New(&buf, "", 0),
	})
	if _, err := db.Exec(`SELECT * FROM obs_t`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SLOW-OP") {
		t.Fatalf("no SLOW-OP line at 1ns threshold; log: %q", out)
	}
	if !strings.Contains(out, "stages=") || !strings.Contains(out, "parse:") {
		t.Errorf("slow-op line missing stage breakdown: %q", out)
	}

	var quiet bytes.Buffer
	db2 := seedFrontend(t, taurus.Config{
		SlowOpThreshold: time.Hour,
		SlowOpLogger:    log.New(&quiet, "", 0),
	})
	if _, err := db2.Exec(`SELECT * FROM obs_t`); err != nil {
		t.Fatal(err)
	}
	if quiet.Len() != 0 {
		t.Errorf("slow-op fired below threshold: %q", quiet.String())
	}
}
