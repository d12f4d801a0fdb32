package taurus

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/exec"
	"taurus/internal/obs"
	"taurus/internal/tpch"
	"taurus/internal/types"
)

// runTPCH executes one query against a tpch.DB binding and renders the
// rows for comparison.
func runTPCH(t *testing.T, db *tpch.DB, eng *engine.Engine, q tpch.Query) []string {
	t.Helper()
	env := tpch.NewEnv(db, true)
	rows, err := tpch.Run(env, exec.NewCtx(eng), q)
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = fmt.Sprintf("%v", d)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func waitReplicaCaughtUp(t *testing.T, rep *DB) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := rep.ReplicaStats()
		if st.TablesAttached >= 8 && st.LagRecords == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up (attached=%d lag=%d)", st.TablesAttached, st.LagRecords)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaParallelTPCHMatchesMaster loads TPC-H on a master, attaches
// a log-tailing replica, and asserts the parallel NDP scans on the
// replica's ReadView return exactly the master's results; that replica
// mutations stay rejected; and that a prepared scan never stamps an LSN
// beyond the replica's visible LSN, even while the master keeps writing.
func TestReplicaParallelTPCHMatchesMaster(t *testing.T) {
	master, err := Open(Config{PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mdb, err := tpch.Load(master.Engine(), 0.005)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(Config{Master: master, ScanParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitReplicaCaughtUp(t, rep)
	rdb, err := tpch.Attach(rep.Engine(), 0.005)
	if err != nil {
		t.Fatal(err)
	}

	q6, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []tpch.Query{q6, {Name: "Q1G", Build: tpch.Q1G}} {
		want := runTPCH(t, mdb, master.Engine(), q)
		got := runTPCH(t, rdb, rep.Engine(), q)
		if len(got) != len(want) {
			t.Fatalf("%s: replica rows = %d, master rows = %d", q.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: replica %q != master %q", q.Name, i, got[i], want[i])
			}
		}
	}
	if rt := rep.ScanRouting(); rt.ScanRouted == 0 {
		t.Error("replica scans routed no sub-batches")
	}

	// Mutations on the replica must fail; the master stays writable.
	if _, err := rep.Exec(`CREATE TABLE nope (id BIGINT, PRIMARY KEY(id))`); err == nil {
		t.Fatal("DDL on a replica must fail")
	}
	if _, err := master.Exec(`CREATE TABLE extra (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}

	// A prepared partitioned scan stamps its LSN once, and it must
	// never pass the replica's visible LSN — including while the master
	// commits ahead of the replica's tail.
	for i := 0; i < 50; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO extra VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := rep.Engine().PrepareNDPScan(engine.ScanOptions{
		Index: rdb.Lineitem.Primary,
		NDP:   &engine.NDPPush{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if visible := rep.ReplicaStats().VisibleLSN; ps.LSN() > visible {
		t.Fatalf("scan LSN %d beyond replica visible LSN %d", ps.LSN(), visible)
	}
	// And the scan actually runs at that snapshot. Emit callbacks run
	// concurrently, one partition each.
	var rows atomic.Int64
	if err := ps.Run(func(int) engine.EmitFunc {
		return func(types.Row, []core.AggState) error { rows.Add(1); return nil }
	}); err != nil {
		t.Fatal(err)
	}
	if rows.Load() == 0 {
		t.Error("partitioned scan emitted no rows")
	}
}

// TestParallelScanMatchesSerialOnMaster sweeps scan parallelism on one
// master and asserts identical results plus router activity.
func TestParallelScanMatchesSerialOnMaster(t *testing.T) {
	master, err := Open(Config{PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mdb, err := tpch.Load(master.Engine(), 0.005)
	if err != nil {
		t.Fatal(err)
	}
	q6, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	routed0 := master.ScanRouting().ScanRouted
	for _, q := range []tpch.Query{q6, {Name: "Q1G", Build: tpch.Q1G}} {
		master.SetScanParallelism(1)
		want := runTPCH(t, mdb, master.Engine(), q)
		for _, par := range []int{2, 4, 8} {
			master.SetScanParallelism(par)
			got := runTPCH(t, mdb, master.Engine(), q)
			if len(got) != len(want) {
				t.Fatalf("%s par=%d: rows = %d, serial = %d", q.Name, par, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s par=%d row %d: %q != serial %q", q.Name, par, i, got[i], want[i])
				}
			}
		}
	}
	if master.ScanRouting().ScanRouted == routed0 {
		t.Error("scan sweep routed no sub-batches")
	}
}

// TestForcedTraceShowsScanFanOut forces a trace on an NDP-eligible
// COUNT(*) and asserts the fan-out is observable: an ndp.scan root with
// per-partition ndp.slice_scan children in the span tree, and
// scan.start/scan.finish events in the flight recorder.
func TestForcedTraceShowsScanFanOut(t *testing.T) {
	// Small slices so the table spans several of them (~15 leaf pages
	// over 4-page slices = 4 partitions).
	db, err := Open(Config{PagesPerSlice: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE big (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	for base := 0; base < 6000; base += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := 0; i < 500; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", base+i, (base+i)%97)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	db.SetNDPPageThreshold(1)
	db.SetScanParallelism(4)
	// Loading warmed the pool; NDP only pays off (and is only chosen)
	// when the scan would actually do I/O.
	db.Engine().Pool().Clear()
	res, id, err := db.ExecTraced(`SELECT COUNT(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("ExecTraced returned trace ID 0")
	}
	if len(res.Rows) != 1 {
		t.Fatalf("COUNT(*) returned %d rows", len(res.Rows))
	}
	spans := db.TraceSpans(id)
	var scanRoot, sliceScans int
	var rootID uint64
	for _, s := range spans {
		switch s.Name {
		case "ndp.scan":
			scanRoot++
			rootID = s.SpanID
		case "ndp.slice_scan":
			sliceScans++
		}
	}
	if scanRoot != 1 {
		t.Fatalf("ndp.scan spans = %d, want 1 (spans: %v)", scanRoot, spanNames(spans))
	}
	if sliceScans < 2 {
		t.Fatalf("ndp.slice_scan spans = %d, want >= 2 (multiple slices)", sliceScans)
	}
	// The per-slice spans hang under the scan root — the fan-out tree.
	for _, s := range spans {
		if s.Name == "ndp.slice_scan" && s.Parent != rootID {
			t.Errorf("ndp.slice_scan parent = %d, want ndp.scan %d", s.Parent, rootID)
		}
	}
	var sawStart, sawFinish bool
	for _, ev := range db.EventRing().Events() {
		switch ev.Kind {
		case "scan.start":
			sawStart = true
		case "scan.finish":
			sawFinish = true
		}
	}
	if !sawStart || !sawFinish {
		t.Errorf("flight recorder missing scan events (start=%v finish=%v)", sawStart, sawFinish)
	}
}

func spanNames(spans []obs.Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}
