package taurus

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"taurus/internal/cluster"
	"taurus/internal/engine"
	"taurus/internal/logstore"
	"taurus/internal/obs"
	"taurus/internal/pagestore"
	"taurus/internal/replica"
)

// reader is something outside the product that consumes a metric
// family: a gate that requires it, a runbook row that sends an operator
// to it, a benchmark cell, a health probe or a taurus-doctor check.
// glob is the reader's source, relative to the repository root; a line
// of it that starts with prefix must name the family, quoted or in
// backticks.
type reader struct {
	what, glob, prefix string
}

var (
	smokeGate  = reader{"scripts/metrics-smoke", "scripts/metrics-smoke/*.go", ""}
	runbookRow = reader{"a README runbook row", "README.md", "| RB-"}
)

// familyReaders names the reader of every metric family the product
// exports. A family with no reader is deleted, not added here.
var familyReaders = map[string]reader{
	"taurus_writepath_stage_seconds":         smokeGate,
	"taurus_rpc_requests_total":              smokeGate,
	"taurus_rpc_latency_seconds":             smokeGate,
	"taurus_buffer_hits_total":               smokeGate,
	"taurus_buffer_misses_total":             smokeGate,
	"taurus_sal_durable_lsn":                 smokeGate,
	"taurus_logstore_durable_lsn":            smokeGate,
	"taurus_logstore_append_seconds":         smokeGate,
	"taurus_pagestore_records_applied_total": smokeGate,
	"taurus_pagestore_apply_seconds":         smokeGate,
	"taurus_engine_rows_emitted_total":       smokeGate,
	"taurus_slow_ops_fired_total":            smokeGate,
	"taurus_logstore_stream_lag_records":     runbookRow,
	"taurus_pagestore_persisted_lsn":         runbookRow,
	"taurus_pagestore_version_pins":          runbookRow,
	"taurus_replica_refresh_seconds":         runbookRow,
}

// readsFamily reports whether r's source names family.
func (r reader) readsFamily(t *testing.T, family string) bool {
	t.Helper()
	files, err := filepath.Glob(r.glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("reader %s: no source matches %s (%v)", r.what, r.glob, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), r.prefix) {
				continue
			}
			if strings.Contains(line, `"`+family+`"`) || strings.Contains(line, "`"+family+"`") {
				return true
			}
		}
	}
	return false
}

// scrapeFamilies returns the family names on reg's exposition, without
// the _max gauge each histogram carries.
func scrapeFamilies(t *testing.T, what string, reg *obs.Registry) []string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("%s: invalid exposition: %v", what, err)
	}
	var names []string
	for name := range fams {
		if base, ok := strings.CutSuffix(name, "_max"); ok && fams[base] == "histogram" {
			continue
		}
		names = append(names, name)
	}
	return names
}

// productRegistries builds every registry the product builds: the
// embedded master and replica after a write, a read and a checkpoint,
// and the -role pagestore, logstore and replica registries, with the
// calls cmd/taurus-server makes for them.
func productRegistries(t *testing.T) map[string]*obs.Registry {
	t.Helper()
	db, err := Open(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE r (id BIGINT, v INT, PRIMARY KEY(id))`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)`)
	mustExec(t, db, `SELECT SUM(v) FROM r WHERE id > 0`)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(Config{Master: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	mustExec(t, rep, `SELECT SUM(v) FROM r WHERE id > 0`)

	psReg := obs.NewRegistry()
	ps := pagestore.New("ps-role", pagestore.WithMetrics(psReg))
	serveOnePing(t, psReg, "ps-role", ps)

	lsReg := obs.NewRegistry()
	ls := logstore.New("ls-role")
	t.Cleanup(func() { ls.Close() })
	ls.RegisterMetrics(lsReg)
	serveOnePing(t, lsReg, "ls-role", ls)

	repReg := obs.NewRegistry()
	rr, err := replica.New(replica.Config{
		Transport: db.tr, Tenant: 1, LogStores: db.logNames, PageStores: db.psNames,
		ReplicationFactor: db.cfg.ReplicationFactor, PagesPerSlice: db.cfg.PagesPerSlice,
		Metrics: repReg, Name: "replica-role", Node: "replica-role",
	})
	if err != nil {
		t.Fatal(err)
	}
	serveOnePing(t, repReg, "replica-role", rr)
	eng, err := engine.New(engine.Config{ReadView: rr})
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterMetrics(repReg, "replica-role")
	eng.Pool().RegisterMetrics(repReg, "replica-role")

	return map[string]*obs.Registry{
		"embedded master": db.Metrics(), "embedded replica": rep.Metrics(),
		"-role pagestore": psReg, "-role logstore": lsReg, "-role replica": repReg,
	}
}

// serveOnePing answers one heartbeat from h through a transport that
// attributes it in reg, as a role's serving loop does
// (cluster.ServeMetrics with side "server"): RPC families register on
// a transport's first call.
func serveOnePing(t *testing.T, reg *obs.Registry, node string, h cluster.Handler) {
	t.Helper()
	tr := cluster.NewInProc()
	tr.Metrics = cluster.NewRPCMetrics(reg, "server")
	tr.Register(node, h)
	if _, err := tr.Call(node, &cluster.PingReq{Node: "test"}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryMetricFamilyHasAReader holds /metrics to what something
// reads: every family a product registry exports is in familyReaders,
// its reader's source names it, and every entry of familyReaders is
// still exported somewhere.
func TestEveryMetricFamilyHasAReader(t *testing.T) {
	exported := map[string][]string{}
	for what, reg := range productRegistries(t) {
		for _, name := range scrapeFamilies(t, what, reg) {
			exported[name] = append(exported[name], what)
		}
	}
	var unread []string
	for name, where := range exported {
		if _, ok := familyReaders[name]; !ok {
			sort.Strings(where)
			unread = append(unread, name+" ("+strings.Join(where, ", ")+")")
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d of %d exported families have no reader:\n  %s",
			len(unread), len(exported), strings.Join(unread, "\n  "))
	}
	for name, r := range familyReaders {
		if !r.readsFamily(t, name) {
			t.Errorf("%s: %s does not name it", name, r.what)
		}
		if _, ok := exported[name]; !ok {
			t.Errorf("%s: read by %s but no product registry exports it", name, r.what)
		}
	}
}
