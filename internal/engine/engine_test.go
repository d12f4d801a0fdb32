package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taurus/internal/btree"
	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/expr"
	"taurus/internal/logstore"
	"taurus/internal/page"
	"taurus/internal/pagestore"
	"taurus/internal/sal"
	"taurus/internal/txn"
	"taurus/internal/types"
)

// testCluster wires a full in-process cluster: 3 log stores, 4 page
// stores, SAL, engine.
type testCluster struct {
	tr     *cluster.InProc
	eng    *Engine
	log    *logstore.Store
	stores []*pagestore.Store
}

func newTestCluster(t testing.TB, poolPages int) *testCluster {
	t.Helper()
	tr := cluster.NewInProc()
	tc := &testCluster{tr: tr}
	logNames := []string{"log1", "log2", "log3"}
	for _, n := range logNames {
		ls := logstore.New(n)
		tc.log = ls
		tr.Register(n, ls)
	}
	psNames := []string{"ps1", "ps2", "ps3", "ps4"}
	for _, n := range psNames {
		ps := pagestore.New(n)
		tc.stores = append(tc.stores, ps)
		tr.Register(n, ps)
	}
	s, err := sal.New(sal.Config{
		Tenant: 1, Transport: tr, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: 3, PagesPerSlice: 64, Plugin: pagestore.PluginInnoDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{SAL: s, PoolPages: poolPages, NDPMaxPagesLookAhead: 8})
	if err != nil {
		t.Fatal(err)
	}
	tc.eng = eng
	return tc
}

var workerSchema = types.NewSchema(
	types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "age", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "join_date", Kind: types.KindDate, NotNull: true},
	types.Column{Name: "salary", Kind: types.KindDecimal, NotNull: true},
	types.Column{Name: "name", Kind: types.KindString},
)

func loadWorkers(t testing.TB, tc *testCluster, n int) *Table {
	t.Helper()
	tbl, err := tc.eng.CreateTable("worker", workerSchema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	tx := tc.eng.Txm().Begin()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(20 + r.Intn(40))),
			types.DateFromYMD(2005+r.Intn(10), 1+r.Intn(12), 1+r.Intn(28)),
			types.NewDecimal(int64(300000 + r.Intn(700000))),
			types.NewString(fmt.Sprintf("worker-%06d", i)),
		}
		if err := tc.eng.Insert(tbl, tx, row); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := tc.eng.SAL().Flush(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func collectScan(t testing.TB, e *Engine, opts ScanOptions) ([]types.Row, [][]core.AggState) {
	t.Helper()
	var rows []types.Row
	var states [][]core.AggState
	err := e.Scan(opts, func(row types.Row, st []core.AggState) error {
		rows = append(rows, row.Clone())
		if st != nil {
			cp := make([]core.AggState, len(st))
			copy(cp, st)
			states = append(states, cp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, states
}

func TestRegularScanAllRows(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 500)
	rows, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary})
	if len(rows) != 500 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has id %d — not in key order", i, r[0].I)
		}
	}
}

func TestRegularVsNDPScanEquivalence(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 800)
	pred := expr.LT(expr.Col(1, "age"), expr.ConstInt(30))
	base := ScanOptions{Index: tbl.Primary, Predicate: pred, Projection: []int{0, 3}}

	regular, _ := collectScan(t, tc.eng, base)

	ndpOpts := base
	ndpOpts.NDP = &NDPPush{PushPredicate: true, PushProjection: true}
	ndp, _ := collectScan(t, tc.eng, ndpOpts)

	if len(regular) != len(ndp) {
		t.Fatalf("regular %d rows, NDP %d rows", len(regular), len(ndp))
	}
	for i := range regular {
		for c := range regular[i] {
			if !types.Equal(regular[i][c], ndp[i][c]) {
				t.Fatalf("row %d col %d: %v vs %v", i, c, regular[i][c], ndp[i][c])
			}
		}
	}
	if len(ndp) == 0 || len(ndp[0]) != 2 {
		t.Fatal("projection not applied")
	}
}

func TestNDPScanReducesNetworkBytes(t *testing.T) {
	tc := newTestCluster(t, 64) // small pool: force storage reads
	tbl := loadWorkers(t, tc, 2000)
	pred := expr.EQ(expr.Col(1, "age"), expr.ConstInt(25)) // ~2.5% selectivity
	tc.eng.Pool().Clear()
	before := tc.tr.Stats.Snapshot()
	collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary, Predicate: pred, Projection: []int{0}})
	regBytes := tc.tr.Stats.Snapshot().Sub(before).BytesReceived

	tc.eng.Pool().Clear()
	before = tc.tr.Stats.Snapshot()
	collectScan(t, tc.eng, ScanOptions{
		Index: tbl.Primary, Predicate: pred, Projection: []int{0},
		NDP: &NDPPush{PushPredicate: true, PushProjection: true},
	})
	ndpBytes := tc.tr.Stats.Snapshot().Sub(before).BytesReceived
	if ndpBytes*5 > regBytes {
		t.Errorf("NDP bytes %d not ≪ regular bytes %d", ndpBytes, regBytes)
	}
}

func TestNDPScanWithAggregation(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 1000)
	// SELECT SUM(salary), COUNT(*) WHERE age < 40 — scalar aggregation.
	pred := expr.LT(expr.Col(1, "age"), expr.ConstInt(40))

	// Reference: regular scan + frontend aggregation.
	var wantSum int64
	var wantCount int64
	rows, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary, Predicate: pred})
	for _, r := range rows {
		wantSum += r[3].I
		wantCount++
	}

	// NDP scan with pushed SUM + COUNT, on a cold buffer pool so pages
	// actually travel through Page Store NDP processing.
	tc.eng.Pool().Clear()
	opts := ScanOptions{
		Index: tbl.Primary, Predicate: pred, Projection: []int{0, 3},
		NDP: &NDPPush{
			PushPredicate: true, PushProjection: true,
			Aggs: []core.AggSpec{
				{Fn: core.AggSum, ArgCol: 1}, // salary in projected layout
				{Fn: core.AggCountStar, ArgCol: -1},
			},
		},
	}
	var gotSum, gotCount int64
	err := tc.eng.Scan(opts, func(row types.Row, states []core.AggState) error {
		if states != nil {
			if states[0].Has {
				gotSum += states[0].Val.I
			}
			gotCount += states[1].Count
		}
		// Base and plain rows accumulate normally.
		gotSum += row[1].I
		gotCount++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum || gotCount != wantCount {
		t.Fatalf("NDP agg sum/count = %d/%d, want %d/%d", gotSum, gotCount, wantSum, wantCount)
	}
	// Rows reaching the SQL node should be far fewer than matching rows.
	if m := tc.eng.Metrics.Snapshot(); m.AggMergesSQL == 0 {
		t.Error("expected aggregate records to have been merged")
	}
}

func TestNDPRangeScanViaSecondaryIndex(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 1000)
	idx, err := tc.eng.CreateSecondaryIndex("worker", "worker_age", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild index content: inserts after index creation only; so
	// create the index before loading in real flows. Reload rows into
	// the index manually here.
	tx := tc.eng.Txm().Begin()
	rows, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary})
	for _, r := range rows {
		irow := idx.rowFor(r)
		if _, err := idx.Tree.Insert(idx.keyOf(nil, irow), types.EncodeRow(nil, idx.Schema, irow), tx.ID); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	// Range scan age ∈ [25, 30] on the secondary index; predicate
	// mirrors the range (ordinals in the secondary layout: age=0,id=1).
	pred := expr.Between(expr.Col(0, "age"), expr.ConstInt(25), expr.ConstInt(30))
	lo := types.EncodeKey(nil, types.Row{types.NewInt(25)})
	hi := types.EncodeKey(nil, types.Row{types.NewInt(31)})
	got, _ := collectScan(t, tc.eng, ScanOptions{
		Index: idx, Start: lo, End: hi, Predicate: pred,
		NDP: &NDPPush{PushPredicate: true},
	})
	want := 0
	for _, r := range rows {
		if r[1].I >= 25 && r[1].I <= 30 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("secondary NDP range scan: %d rows, want %d", len(got), want)
	}
	// Verify ordering on the secondary key.
	for i := 1; i < len(got); i++ {
		if got[i-1][0].I > got[i][0].I {
			t.Fatal("secondary scan out of order")
		}
	}
}

func TestMVCCAmbiguousRecordsResolvedByFrontend(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 200)

	// Reader view taken before the update.
	readerView := tc.eng.Txm().View(nil)

	// A writer updates salary of workers 0..49 (uncommitted).
	writer := tc.eng.Txm().Begin()
	for i := 0; i < 50; i++ {
		old, err := tc.eng.readRowByPK(tbl, types.EncodeKey(nil, types.Row{types.NewInt(int64(i))}))
		if err != nil {
			t.Fatal(err)
		}
		updated := old.Clone()
		updated[3] = types.NewDecimal(999999999)
		if err := tc.eng.UpdateByPK(tbl, writer, types.Row{types.NewInt(int64(i))}, updated); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.eng.SAL().Flush(); err != nil {
		t.Fatal(err)
	}

	// NDP scan under the old view: the Page Store must return the 50
	// updated records as ambiguous; the frontend resolves them via undo
	// to their ORIGINAL salaries.
	sumSalary := func(view *txn.ReadView, ndp *NDPPush) int64 {
		var sum int64
		err := tc.eng.Scan(ScanOptions{Index: tbl.Primary, View: view, NDP: ndp}, func(row types.Row, _ []core.AggState) error {
			sum += row[3].I
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	wantOld := sumSalary(readerView, nil)
	gotOldNDP := sumSalary(readerView, &NDPPush{PushPredicate: false})
	if gotOldNDP != wantOld {
		t.Fatalf("NDP scan under old view: %d, want %d", gotOldNDP, wantOld)
	}
	m := tc.eng.Metrics.Snapshot()
	if m.UndoResolutions == 0 {
		t.Error("expected undo resolutions for ambiguous records")
	}

	// After commit, a fresh view sees the new salaries (and they differ).
	writer.Commit()
	newView := tc.eng.Txm().View(nil)
	gotNew := sumSalary(newView, &NDPPush{})
	if gotNew == wantOld {
		t.Error("new view should see updated salaries")
	}
	wantNewRegular := sumSalary(newView, nil)
	if gotNew != wantNewRegular {
		t.Fatalf("NDP vs regular under new view: %d vs %d", gotNew, wantNewRegular)
	}
}

func TestDeleteVisibility(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 100)
	oldView := tc.eng.Txm().View(nil)
	deleter := tc.eng.Txm().Begin()
	for i := 0; i < 10; i++ {
		if err := tc.eng.DeleteByPK(tbl, deleter, types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	deleter.Commit()
	newView := tc.eng.Txm().View(nil)

	countRows := func(view *txn.ReadView, ndp *NDPPush) int {
		n := 0
		err := tc.eng.Scan(ScanOptions{Index: tbl.Primary, View: view, NDP: ndp}, func(types.Row, []core.AggState) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, ndp := range []*NDPPush{nil, {}} {
		if got := countRows(oldView, ndp); got != 100 {
			t.Errorf("old view (ndp=%v) sees %d rows, want 100", ndp != nil, got)
		}
		if got := countRows(newView, ndp); got != 90 {
			t.Errorf("new view (ndp=%v) sees %d rows, want 90", ndp != nil, got)
		}
	}
}

func TestBestEffortSkipStillCorrect(t *testing.T) {
	// Build a cluster whose Page Stores have controllable admission.
	tr := cluster.NewInProc()
	logNames := []string{"log1", "log2", "log3"}
	for _, n := range logNames {
		tr.Register(n, logstore.New(n))
	}
	psNames := []string{"ps1", "ps2", "ps3", "ps4"}
	var controls []*pagestore.ResourceControl
	for _, n := range psNames {
		rc := pagestore.NewResourceControl(2, 64)
		controls = append(controls, rc)
		tr.Register(n, pagestore.New(n, pagestore.WithResourceControl(rc)))
	}
	s, err := sal.New(sal.Config{
		Tenant: 1, Transport: tr, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: 3, PagesPerSlice: 64, Plugin: pagestore.PluginInnoDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{SAL: s, PoolPages: 64, NDPMaxPagesLookAhead: 8})
	if err != nil {
		t.Fatal(err)
	}
	tc2 := &testCluster{tr: tr, eng: eng}
	tbl := loadWorkers(t, tc2, 1000)
	pred := expr.LT(expr.Col(1, "age"), expr.ConstInt(35))
	want, _ := collectScan(t, tc2.eng, ScanOptions{Index: tbl.Primary, Predicate: pred})

	check := func(label string) {
		tc2.eng.Pool().Clear()
		got, _ := collectScan(t, tc2.eng, ScanOptions{
			Index: tbl.Primary, Predicate: pred,
			NDP: &NDPPush{PushPredicate: true},
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
	}
	// All skipped.
	for _, rc := range controls {
		rc.SetForceSkip(true)
	}
	check("all skipped")
	m := tc2.eng.Metrics.Snapshot()
	if m.SkippedCompleted == 0 {
		t.Error("frontend should have completed skipped pages")
	}
	// Partial skip (page-scoped, not all-or-nothing).
	for _, rc := range controls {
		rc.SetForceSkip(false)
		rc.SetSkipEvery(3)
	}
	check("every 3rd skipped")
	// No skip.
	for _, rc := range controls {
		rc.SetSkipEvery(0)
	}
	check("none skipped")
}

func TestBufferPoolCopyAvoidsIO(t *testing.T) {
	tc := newTestCluster(t, 8192)
	tbl := loadWorkers(t, tc, 500)
	// Warm the pool with a regular scan.
	collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary})
	before := tc.eng.Metrics.Snapshot()
	beforeNet := tc.tr.Stats.Snapshot()
	// NDP scan should copy cached pages instead of reading.
	collectScan(t, tc.eng, ScanOptions{
		Index: tbl.Primary, Predicate: expr.LT(expr.Col(1, "age"), expr.ConstInt(30)),
		NDP: &NDPPush{PushPredicate: true},
	})
	m := tc.eng.Metrics.Snapshot().Sub(before)
	if m.LocalCopies == 0 {
		t.Error("expected buffer-pool copies")
	}
	if m.BatchReads != 0 {
		t.Errorf("expected zero batch reads with a fully warm pool, got %d", m.BatchReads)
	}
	net := tc.tr.Stats.Snapshot().Sub(beforeNet)
	if net.BatchReads != 0 {
		t.Error("no network batch reads should have happened")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tc := newTestCluster(t, 4096)
	tbl := loadWorkers(t, tc, 300)
	n := 0
	err := tc.eng.Scan(ScanOptions{Index: tbl.Primary}, func(types.Row, []core.AggState) error {
		n++
		if n == 10 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
	// NDP path too.
	n = 0
	err = tc.eng.Scan(ScanOptions{Index: tbl.Primary, NDP: &NDPPush{}}, func(types.Row, []core.AggState) error {
		n++
		if n == 10 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("NDP early stop: n=%d err=%v", n, err)
	}
}

func TestGroupedNDPAggregation(t *testing.T) {
	tc := newTestCluster(t, 4096)
	// Table keyed by (grp, seq) so grouping column is the key prefix.
	schema := types.NewSchema(
		types.Column{Name: "grp", Kind: types.KindInt},
		types.Column{Name: "seq", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindInt},
	)
	tbl, err := tc.eng.CreateTable("g", schema, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tx := tc.eng.Txm().Begin()
	r := rand.New(rand.NewSource(1))
	want := map[int64]int64{}
	for g := int64(0); g < 20; g++ {
		for s := int64(0); s < 100; s++ {
			v := r.Int63n(100)
			want[g] += v
			if err := tc.eng.Insert(tbl, tx, types.Row{types.NewInt(g), types.NewInt(s), types.NewInt(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx.Commit()
	tc.eng.SAL().Flush()

	// NDP scan with GROUP BY grp, SUM(val): executor-style streaming
	// consumption.
	got := map[int64]int64{}
	opts := ScanOptions{
		Index: tbl.Primary, Projection: []int{0, 2},
		NDP: &NDPPush{
			PushProjection: true,
			Aggs:           []core.AggSpec{{Fn: core.AggSum, ArgCol: 1}},
			GroupBy:        []int{0},
		},
	}
	err = tc.eng.Scan(opts, func(row types.Row, states []core.AggState) error {
		g := row[0].I
		if states != nil && states[0].Has {
			got[g] += states[0].Val.I
		}
		got[g] += row[1].I
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("groups: %d vs %d", len(got), len(want))
	}
	for g, w := range want {
		if got[g] != w {
			t.Errorf("group %d: %d, want %d", g, got[g], w)
		}
	}
}

// countSum accumulates a scan's COUNT(*) and SUM(col 0) the way the
// executor does: an NDP aggregate record's partial states, then its row.
type countSum struct{ n, sum int64 }

func (c *countSum) emit(row types.Row, st []core.AggState) error {
	if st != nil {
		c.n += st[0].Count
		if st[1].Has {
			c.sum += st[1].Val.I
		}
	}
	c.n++
	c.sum += row[0].I
	return nil
}

// TestNDPScanOnThreeLevelTree checks that an unbounded NDP scan of an
// index three levels high finds every leaf: on a cold pool, NDP COUNT(*)
// and SUM equal the generated rows, the regular scan, and the
// partitioned run of the same scan.
func TestNDPScanOnThreeLevelTree(t *testing.T) {
	tc := newTestCluster(t, 4096)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "pad", Kind: types.KindString, NotNull: true},
		types.Column{Name: "val", Kind: types.KindInt, NotNull: true},
	)
	// A ~1 KB key keeps the interior fan-out near 15, so a few hundred
	// rows already need three levels.
	tbl, err := tc.eng.CreateTable("wide", schema, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 1000)
	var want countSum
	tx := tc.eng.Txm().Begin()
	for i := int64(0); i < 800; i++ {
		if err := tc.eng.Insert(tbl, tx, types.Row{types.NewInt(i), types.NewString(pad), types.NewInt(i % 97)}); err != nil {
			t.Fatal(err)
		}
		want.n++
		want.sum += i % 97
	}
	tx.Commit()
	if err := tc.eng.SAL().Flush(); err != nil {
		t.Fatal(err)
	}
	if h := tbl.Primary.Tree.Height(); h < 3 {
		t.Fatalf("tree height %d, want >= 3", h)
	}

	var regular countSum
	rows, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary, Projection: []int{2}})
	for _, r := range rows {
		regular.emit(r, nil)
	}
	opts := ScanOptions{
		Index: tbl.Primary, Projection: []int{2},
		NDP: &NDPPush{PushProjection: true, Aggs: []core.AggSpec{
			{Fn: core.AggCountStar, ArgCol: -1},
			{Fn: core.AggSum, ArgCol: 0},
		}},
	}
	tc.eng.Pool().Clear()
	var ndp countSum
	if err := tc.eng.Scan(opts, ndp.emit); err != nil {
		t.Fatal(err)
	}
	tc.eng.Pool().Clear()
	ps, err := tc.eng.PrepareNDPScan(opts)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]countSum, ps.Parts())
	if err := ps.Run(func(i int) EmitFunc { return parts[i].emit }); err != nil {
		t.Fatal(err)
	}
	var partitioned countSum
	for _, p := range parts {
		partitioned.n += p.n
		partitioned.sum += p.sum
	}
	for name, got := range map[string]countSum{"regular": regular, "NDP": ndp, "partitioned NDP": partitioned} {
		if got != want {
			t.Errorf("%s scan: COUNT(*) %d SUM %d, want %d %d", name, got.n, got.sum, want.n, want.sum)
		}
	}
}

// TestSplitDoesNotResurrectDeletedRows: a split moves records to a new
// page with InsertRec records, which carry no delete mark, so moving a
// delete-marked record would bring its row back while Compact purges the
// original. 2000 even keys, 100 of them deleted and committed, then 1000
// odd keys inserted among them (splitting the leaves that hold the
// deleted records): the regular and the NDP scan both count 2900 rows.
func TestSplitDoesNotResurrectDeletedRows(t *testing.T) {
	tc := newTestCluster(t, 4096)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "pad", Kind: types.KindString, NotNull: true},
	)
	tbl, err := tc.eng.CreateTable("t", schema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 100)
	insert := func(keys func(i int64) int64, n int64) {
		tx := tc.eng.Txm().Begin()
		for i := int64(0); i < n; i++ {
			if err := tc.eng.Insert(tbl, tx, types.Row{types.NewInt(keys(i)), types.NewString(pad)}); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
	}
	insert(func(i int64) int64 { return 2 * i }, 2000)
	del := tc.eng.Txm().Begin()
	for i := int64(0); i < 100; i++ {
		if err := tc.eng.DeleteByPK(tbl, del, types.Row{types.NewInt(40 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	del.Commit()
	insert(func(i int64) int64 { return 4*i + 1 }, 1000)
	if err := tc.eng.SAL().Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ndp := range []*NDPPush{nil, {}} {
		tc.eng.Pool().Clear()
		n := 0
		if err := tc.eng.Scan(ScanOptions{Index: tbl.Primary, NDP: ndp}, func(types.Row, []core.AggState) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 2900 {
			t.Errorf("scan (ndp=%v) counts %d rows, want 2900", ndp != nil, n)
		}
	}
}

// raisingPager is the engine's pager with a hook that runs once, on the
// second read of page `at`: in ReadLeaf on a one-leaf tree, the first
// read is SeekLeaf's descent under the tree lock, the second is the
// leaf read after the lock is released.
type raisingPager struct {
	pager
	at    uint64
	reads int
	hook  func()
}

func (p *raisingPager) Read(pageID uint64) (*page.Page, error) {
	if pageID == p.at && p.hook != nil {
		if p.reads++; p.reads == 2 {
			hook := p.hook
			p.hook = nil
			hook()
		}
	}
	return p.pager.Read(pageID)
}

// TestLeafReadsSurviveRootRaise: on a one-leaf table, an INSERT that
// raises the root between a reader's descent and its leaf read turns the
// page the reader is about to read into an interior page. The regular
// scan, DeleteByPK and an NDP scan whose buffer-pool copy of that page
// is taken after the raise must all still find their rows. The leaf is
// nearly full, so the raise comes within a few records and the NDP
// scan's stamped version of the page is still retained.
func TestLeafReadsSurviveRootRaise(t *testing.T) {
	setup := func(t *testing.T) (*testCluster, *Table, int64, func()) {
		tc := newTestCluster(t, 4096)
		schema := types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
			types.Column{Name: "pad", Kind: types.KindString, NotNull: true},
		)
		tbl, err := tc.eng.CreateTable("t", schema, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		pad := strings.Repeat("p", 100)
		insert := func(from int64, until func() bool) {
			tx := tc.eng.Txm().Begin()
			for i := from; !until(); i++ {
				if err := tc.eng.Insert(tbl, tx, types.Row{types.NewInt(i), types.NewString(pad)}); err != nil {
					t.Fatal(err)
				}
			}
			tx.Commit()
		}
		n := int64(-1)
		insert(0, func() bool {
			n++
			root, err := (pager{tc.eng}).Read(tbl.Primary.Tree.Root())
			if err != nil {
				t.Fatal(err)
			}
			return !root.HasRoomFor(3 * 150)
		})
		raise := func() { insert(n, func() bool { return tbl.Primary.Tree.Height() >= 2 }) }
		return tc, tbl, n, raise
	}
	hook := func(tc *testCluster, tbl *Table, raise func()) *raisingPager {
		tree := tbl.Primary.Tree
		p := &raisingPager{pager: pager{tc.eng}, at: tree.Root(), hook: raise}
		tbl.Primary.Tree = btree.Attach(p, tbl.Primary.ID, tree.Root())
		return p
	}
	t.Run("regular scan", func(t *testing.T) {
		tc, tbl, n, raise := setup(t)
		p := hook(tc, tbl, raise)
		rows, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary, Start: types.EncodeKey(nil, types.Row{types.NewInt(3)})})
		if p.hook != nil {
			t.Fatal("the root was not raised during the scan")
		}
		if int64(len(rows)) != n-3 {
			t.Fatalf("scan from key 3 returned %d rows, want %d", len(rows), n-3)
		}
	})
	t.Run("DeleteByPK", func(t *testing.T) {
		tc, tbl, _, raise := setup(t)
		p := hook(tc, tbl, raise)
		tx := tc.eng.Txm().Begin()
		if err := tc.eng.DeleteByPK(tbl, tx, types.Row{types.NewInt(5)}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if p.hook != nil {
			t.Fatal("the root was not raised during the delete")
		}
		key := types.EncodeKey(nil, types.Row{types.NewInt(5)})
		if rows, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary, Start: key, End: key}); len(rows) != 0 {
			t.Fatalf("deleted row still scanned: %v", rows)
		}
	})
	t.Run("NDP scan", func(t *testing.T) {
		tc, tbl, n, raise := setup(t)
		ps, err := tc.eng.PrepareNDPScan(ScanOptions{Index: tbl.Primary, NDP: &NDPPush{}})
		if err != nil {
			t.Fatal(err)
		}
		raise()
		got := int64(0)
		if err := ps.Run(func(int) EmitFunc {
			return func(types.Row, []core.AggState) error { got++; return nil }
		}); err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("NDP scan collected before the raise returned %d rows, want %d", got, n)
		}
	})
}

// Property-style check: random predicates, NDP on/off, partial skips —
// all runs produce identical row sets.
func TestScanEquivalenceUnderSkewQuick(t *testing.T) {
	tc := newTestCluster(t, 128)
	tbl := loadWorkers(t, tc, 1500)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		lo := int64(20 + r.Intn(20))
		hi := lo + int64(r.Intn(15))
		pred := expr.Between(expr.Col(1, "age"), expr.ConstInt(lo), expr.ConstInt(hi))
		tc.eng.Pool().Clear()
		want, _ := collectScan(t, tc.eng, ScanOptions{Index: tbl.Primary, Predicate: pred, Projection: []int{0}})
		tc.eng.Pool().Clear()
		got, _ := collectScan(t, tc.eng, ScanOptions{
			Index: tbl.Primary, Predicate: pred, Projection: []int{0},
			NDP: &NDPPush{PushPredicate: true, PushProjection: true},
		})
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d rows", trial, len(want), len(got))
		}
		for i := range want {
			if want[i][0].I != got[i][0].I {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, want[i], got[i])
			}
		}
	}
}

// TestCommitWaitsOnTxnMaxLSN pins the statement-level MVCC commit
// semantics: a transaction's commit wait target is its OWN max LSN —
// strictly below the global allocator after an unrelated concurrent
// writer logs more records — and committing with it succeeds.
func TestCommitWaitsOnTxnMaxLSN(t *testing.T) {
	tc := newTestCluster(t, 256)
	tbl, err := tc.eng.CreateTable("worker", workerSchema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	mkRow := func(id int64) types.Row {
		return types.Row{
			types.NewInt(id), types.NewInt(30),
			types.DateFromYMD(2012, 1, 15),
			types.NewDecimal(310000),
			types.NewString(fmt.Sprintf("w%d", id)),
		}
	}
	tx1 := tc.eng.Txm().Begin()
	if err := tc.eng.Insert(tbl, tx1, mkRow(1)); err != nil {
		t.Fatal(err)
	}
	if tx1.MaxLSN() == 0 {
		t.Fatal("insert did not thread its LSN back to the transaction")
	}
	// An unrelated writer advances the global allocator.
	tx2 := tc.eng.Txm().Begin()
	for i := int64(2); i < 10; i++ {
		if err := tc.eng.Insert(tbl, tx2, mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tx1.MaxLSN() >= tc.eng.SAL().CurrentLSN() {
		t.Fatalf("per-txn wait LSN %d must be below global CurrentLSN %d",
			tx1.MaxLSN(), tc.eng.SAL().CurrentLSN())
	}
	if tx2.MaxLSN() <= tx1.MaxLSN() {
		t.Fatalf("later writer's watermark %d not above earlier %d", tx2.MaxLSN(), tx1.MaxLSN())
	}
	if err := tc.eng.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	// Commit durability covers exactly the transaction's own prefix.
	if tc.eng.SAL().DurableLSN() < tx1.MaxLSN() {
		t.Fatalf("durable %d below committed transaction's max LSN %d",
			tc.eng.SAL().DurableLSN(), tx1.MaxLSN())
	}
	if err := tc.eng.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	// Updates and deletes thread their LSNs too.
	tx3 := tc.eng.Txm().Begin()
	if err := tc.eng.UpdateByPK(tbl, tx3, types.Row{types.NewInt(1)}, mkRow(1)); err != nil {
		t.Fatal(err)
	}
	afterUpdate := tx3.MaxLSN()
	if afterUpdate <= tx2.MaxLSN() {
		t.Fatalf("update watermark %d not past prior writes", afterUpdate)
	}
	if err := tc.eng.DeleteByPK(tbl, tx3, types.Row{types.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if tx3.MaxLSN() <= afterUpdate {
		t.Fatalf("delete did not advance the watermark: %d", tx3.MaxLSN())
	}
	if err := tc.eng.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}
