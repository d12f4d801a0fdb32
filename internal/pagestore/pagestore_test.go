package pagestore

import (
	"encoding/binary"
	"testing"

	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/core/ir"
	"taurus/internal/expr"
	"taurus/internal/page"
	"taurus/internal/types"
	"taurus/internal/wal"
)

var idvSchema = types.NewSchema(
	types.Column{Name: "id", Kind: types.KindInt},
	types.Column{Name: "v", Kind: types.KindInt},
)

// seedSlice formats nPages pages with rows via the redo path, exactly as
// a SAL would.
func seedSlice(t testing.TB, s *Store, tenant, sliceID uint32, nPages, rowsPerPage int) uint64 {
	t.Helper()
	s.CreateSlice(tenant, sliceID)
	var lsn uint64
	var buf []byte
	id := int64(0)
	for p := 0; p < nPages; p++ {
		lsn++
		rec := wal.Record{LSN: lsn, Type: wal.TypeFormatPage, PageID: uint64(p + 1), IndexID: 1}
		buf = rec.Encode(buf)
		for r := 0; r < rowsPerPage; r++ {
			lsn++
			key := types.EncodeKey(nil, types.Row{types.NewInt(id)})
			row := types.EncodeRow(nil, idvSchema, types.Row{types.NewInt(id), types.NewInt(id % 10)})
			ins := wal.Record{
				LSN: lsn, Type: wal.TypeInsertRec, PageID: uint64(p + 1),
				Off: wal.OffAppend, TrxID: 5, Payload: page.EncodeLeafPayload(nil, key, row),
			}
			buf = ins.Encode(buf)
			id++
		}
	}
	if _, err := s.WriteLogs(tenant, sliceID, buf); err != nil {
		t.Fatal(err)
	}
	return lsn
}

func descWithPredicate(t testing.TB, threshold int64) []byte {
	t.Helper()
	prog, err := ir.Compile(expr.GE(expr.Col(1, "v"), expr.ConstInt(threshold)), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := &core.Descriptor{
		IndexID:      1,
		Cols:         []types.Kind{types.KindInt, types.KindInt},
		FixedLens:    []uint16{0, 0},
		Predicate:    prog.Encode(),
		LowWatermark: 100,
	}
	return d.Encode()
}

func TestWriteLogsAndReadPage(t *testing.T) {
	s := New("ps1")
	lsn := seedSlice(t, s, 1, 0, 3, 10)
	raw, err := s.ReadPage(1, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumRecords() != 10 || pg.ID() != 2 {
		t.Fatalf("page 2 has %d records", pg.NumRecords())
	}
	if pg.LSN() == 0 || pg.LSN() > lsn {
		t.Errorf("page LSN %d out of range", pg.LSN())
	}
	// Unknown page and slice.
	if _, err := s.ReadPage(1, 0, 99, 0); err == nil {
		t.Error("unknown page should fail")
	}
	if _, err := s.ReadPage(9, 9, 1, 0); err == nil {
		t.Error("unknown slice should fail")
	}
	// Stats recorded.
	if snap := s.Snapshot(); snap.LogRecordsApplied == 0 || snap.PageReads != 1 {
		t.Errorf("stats = %+v", snap)
	}
}

func TestLSNVersionedReads(t *testing.T) {
	s := New("ps1")
	s.CreateSlice(1, 0)
	// Format a page at LSN 1, insert at LSN 2 and 3.
	var buf []byte
	buf = (&wal.Record{LSN: 1, Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}).Encode(buf)
	key := types.EncodeKey(nil, types.Row{types.NewInt(1)})
	row := types.EncodeRow(nil, idvSchema, types.Row{types.NewInt(1), types.NewInt(1)})
	payload := page.EncodeLeafPayload(nil, key, row)
	buf = (&wal.Record{LSN: 2, Type: wal.TypeInsertRec, PageID: 1, Off: wal.OffAppend, TrxID: 1, Payload: payload}).Encode(buf)
	buf = (&wal.Record{LSN: 3, Type: wal.TypeInsertRec, PageID: 1, Off: wal.OffAppend, TrxID: 1, Payload: payload}).Encode(buf)
	if _, err := s.WriteLogs(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	// Version at LSN 2 has 1 record; at LSN 3 (and latest) has 2.
	for _, tc := range []struct {
		lsn  uint64
		want int
	}{{2, 1}, {3, 2}, {0, 2}} {
		raw, err := s.ReadPage(1, 0, 1, tc.lsn)
		if err != nil {
			t.Fatalf("lsn %d: %v", tc.lsn, err)
		}
		pg, _ := page.FromBytes(raw)
		if pg.NumRecords() != tc.want {
			t.Errorf("lsn %d: %d records, want %d", tc.lsn, pg.NumRecords(), tc.want)
		}
	}
	// "The Page Store only returns those page versions matching the LSN
	// value": version at LSN 1 exists (empty page).
	raw, err := s.ReadPage(1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := page.FromBytes(raw)
	if pg.NumRecords() != 0 {
		t.Errorf("lsn 1 should be the empty page, has %d", pg.NumRecords())
	}
}

func TestIdempotentRedelivery(t *testing.T) {
	s := New("ps1")
	lsn := seedSlice(t, s, 1, 0, 1, 5)
	raw1, _ := s.ReadPage(1, 0, 1, 0)
	// Redeliver the same log batch; page must not change.
	var buf []byte
	rec := wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: 1}
	buf = rec.Encode(buf)
	if _, err := s.WriteLogs(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	raw2, _ := s.ReadPage(1, 0, 1, 0)
	if string(raw1) != string(raw2) {
		t.Error("redelivered record with old LSN must be ignored")
	}
}

func TestBatchReadPlain(t *testing.T) {
	s := New("ps1")
	seedSlice(t, s, 1, 0, 4, 8)
	resp, err := s.BatchRead(&cluster.BatchReadReq{
		Tenant: 1, SliceID: 0, PageIDs: []uint64{3, 1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Pages) != 3 {
		t.Fatalf("got %d pages", len(resp.Pages))
	}
	for i, want := range []uint64{3, 1, 4} {
		pg, err := page.FromBytes(resp.Pages[i])
		if err != nil {
			t.Fatal(err)
		}
		if pg.ID() != want {
			t.Errorf("page %d: id %d want %d", i, pg.ID(), want)
		}
		if pg.IsNDP() {
			t.Error("plain batch read must return regular pages")
		}
	}
}

func TestBatchReadNDP(t *testing.T) {
	s := New("ps1")
	seedSlice(t, s, 1, 0, 4, 20)
	desc := descWithPredicate(t, 8) // keeps v ∈ {8,9}: 20% of rows
	resp, err := s.BatchRead(&cluster.BatchReadReq{
		Tenant: 1, SliceID: 0, PageIDs: []uint64{1, 2, 3, 4}, Desc: desc, Plugin: PluginInnoDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Processed != 4 || resp.Skipped != 0 {
		t.Fatalf("processed/skipped = %d/%d", resp.Processed, resp.Skipped)
	}
	totalRecs := 0
	totalBytes := 0
	for _, raw := range resp.Pages {
		pg, err := page.FromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !pg.IsNDP() {
			t.Error("NDP batch read must return NDP pages")
		}
		totalRecs += pg.NumRecords()
		totalBytes += len(raw)
	}
	if totalRecs != 16 { // 80 rows, 20% pass
		t.Errorf("filtered records = %d, want 16", totalRecs)
	}
	if totalBytes >= 4*page.Size/4 {
		t.Errorf("NDP pages total %d bytes; expected strong reduction", totalBytes)
	}
	// Descriptor cache: second call hits.
	if _, err := s.BatchRead(&cluster.BatchReadReq{
		Tenant: 1, SliceID: 0, PageIDs: []uint64{1}, Desc: desc, Plugin: PluginInnoDB,
	}); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.DescCacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d", hits, misses)
	}
}

func TestBatchReadBestEffortSkip(t *testing.T) {
	rc := NewResourceControl(2, 4)
	rc.SetForceSkip(true)
	s := New("ps1", WithResourceControl(rc))
	seedSlice(t, s, 1, 0, 3, 10)
	desc := descWithPredicate(t, 5)
	resp, err := s.BatchRead(&cluster.BatchReadReq{
		Tenant: 1, SliceID: 0, PageIDs: []uint64{1, 2, 3}, Desc: desc, Plugin: PluginInnoDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Skipped != 3 || resp.Processed != 0 {
		t.Fatalf("skipped/processed = %d/%d", resp.Skipped, resp.Processed)
	}
	for _, raw := range resp.Pages {
		pg, err := page.FromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !pg.IsNDPSkipped() || pg.IsNDP() {
			t.Error("skipped pages must be regular images flagged NDP-skipped")
		}
		if pg.NumRecords() != 10 {
			t.Error("skipped pages must be unprocessed")
		}
	}
	// Partial skip: every 2nd page.
	rc.SetForceSkip(false)
	rc.SetSkipEvery(2)
	resp, err = s.BatchRead(&cluster.BatchReadReq{
		Tenant: 1, SliceID: 0, PageIDs: []uint64{1, 2, 3}, Desc: desc, Plugin: PluginInnoDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Skipped == 0 || resp.Processed == 0 {
		t.Errorf("page-scoped throttling should mix outcomes, got %d/%d", resp.Processed, resp.Skipped)
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	s := New("ps1")
	seedSlice(t, s, 1, 0, 1, 3)
	seedSlice(t, s, 2, 0, 1, 7)
	p1, err := s.ReadPage(1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.ReadPage(2, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg1, _ := page.FromBytes(p1)
	pg2, _ := page.FromBytes(p2)
	if pg1.NumRecords() != 3 || pg2.NumRecords() != 7 {
		t.Error("tenants must have separate slices")
	}
}

func TestHandleDispatch(t *testing.T) {
	s := New("ps1")
	if _, err := s.Handle(&cluster.CreateSliceReq{Tenant: 1, SliceID: 0}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = (&wal.Record{LSN: 1, Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}).Encode(buf)
	resp, err := s.Handle(&cluster.WriteLogsReq{Tenant: 1, SliceID: 0, Recs: buf})
	if err != nil || resp.(*cluster.Ack).LSN != 1 {
		t.Fatalf("WriteLogs: %v %v", resp, err)
	}
	if _, err := s.Handle(&cluster.ReadPageReq{Tenant: 1, SliceID: 0, PageID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(&cluster.BatchReadReq{Tenant: 1, SliceID: 0, PageIDs: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle("garbage"); err == nil {
		t.Error("unknown request should fail")
	}
	// Unknown plugin.
	if _, err := s.Handle(&cluster.BatchReadReq{
		Tenant: 1, SliceID: 0, PageIDs: []uint64{1}, Desc: []byte("x"), Plugin: "no-such-db",
	}); err == nil {
		t.Error("unknown plugin should fail")
	}
}

// TestHandleRejectsCraftedDescriptors sends descriptors no frontend
// builds through Handle, as a TCP Page Store receives them. Each used to
// panic (in the decoder, or in a BatchRead worker goroutine no caller can
// recover) and kill the process; now each is refused or answered.
func TestHandleRejectsCraftedDescriptors(t *testing.T) {
	s := New("ps1")
	seedSlice(t, s, 1, 0, 2, 10)
	intRow := []types.Kind{types.KindInt, types.KindInt}
	// A string constant whose uvarint length is 2^63 + 7.
	hugeString := append([]byte("TIR1"), 1, 0, 1, byte(types.KindString))
	hugeString = binary.AppendUvarint(hugeString, 1<<63+7)
	// An aggregate argument loading column 3 of a 2-column output row.
	col3 := (&ir.Program{NumRegs: 1, NumCols: 4,
		Instrs: []ir.Instr{{Op: ir.OpLoadCol, B: 3}, {Op: ir.OpRet}}}).Encode()
	// A string column compared with an integer constant: the rows hold
	// integers, but the descriptor declares column 0 a string.
	strVsInt, err := ir.Compile(expr.EQ(expr.Col(0, "id"), expr.ConstInt(5)), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		desc    core.Descriptor
		wantErr bool
	}{
		{"huge string length", core.Descriptor{IndexID: 1, Cols: intRow, FixedLens: []uint16{0, 0},
			Predicate: hugeString, LowWatermark: 100}, true},
		{"argument column beyond the row", core.Descriptor{IndexID: 1, Cols: intRow, FixedLens: []uint16{0, 0},
			Aggs: []core.AggSpec{{Fn: core.AggSum, ArgCol: -1, ArgIR: col3}}, LowWatermark: 100}, true},
		{"string column against an integer", core.Descriptor{IndexID: 1,
			Cols: []types.Kind{types.KindString, types.KindInt}, FixedLens: []uint16{0, 0},
			Predicate: strVsInt.Encode(), LowWatermark: 100}, false},
	} {
		_, err := s.Handle(&cluster.BatchReadReq{
			Tenant: 1, SliceID: 0, PageIDs: []uint64{1, 2}, Desc: c.desc.Encode(), Plugin: PluginInnoDB,
		})
		if c.wantErr && err == nil {
			t.Errorf("%s: BatchRead accepted the descriptor", c.name)
		}
	}
}

func TestDescriptorCacheEviction(t *testing.T) {
	c := NewDescriptorCache(1)
	d1 := descWithPredicate(t, 1)
	d2 := descWithPredicate(t, 2)
	c.Get(d1)
	c.Get(d2) // evicts d1
	c.Get(d2) // hit
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestResourceControlAdmission(t *testing.T) {
	rc := NewResourceControl(1, 0)
	rel, ok := rc.TryAdmit()
	if !ok {
		t.Fatal("first admit should succeed")
	}
	// Queue (cap workers+0 = 1) is full; next admit must skip.
	if _, ok := rc.TryAdmit(); ok {
		t.Fatal("second admit should be rejected while slot held")
	}
	rel()
	if rel2, ok := rc.TryAdmit(); !ok {
		t.Fatal("admit after release should succeed")
	} else {
		rel2()
	}
}

// TestNodeStatsDescCacheAndQueueDepth covers the observability surface
// scan routing leans on: descriptor-cache hit/miss counts and the NDP
// admission queue depth appear in NodeStats.
func TestNodeStatsDescCacheAndQueueDepth(t *testing.T) {
	s := New("ps1")
	seedSlice(t, s, 1, 0, 4, 20)
	desc := descWithPredicate(t, 8)
	for i := 0; i < 2; i++ { // first compiles (miss), second hits
		if _, err := s.BatchRead(&cluster.BatchReadReq{
			Tenant: 1, SliceID: 0, PageIDs: []uint64{1, 2, 3, 4}, Desc: desc, Plugin: PluginInnoDB,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ns := s.NodeStats()
	if ns.DescCacheHits != 1 || ns.DescCacheMisses != 1 {
		t.Errorf("NodeStats desc cache hits/misses = %d/%d, want 1/1",
			ns.DescCacheHits, ns.DescCacheMisses)
	}
	if ns.NDPQueueDepth != 0 {
		t.Errorf("NDPQueueDepth = %d between requests, want 0", ns.NDPQueueDepth)
	}
	// While a worker slot is held, the depth is visible.
	rel, ok := s.control.TryAdmit()
	if !ok {
		t.Fatal("admit failed on an idle store")
	}
	if got := s.NodeStats().NDPQueueDepth; got != 1 {
		t.Errorf("NDPQueueDepth = %d with one admission held, want 1", got)
	}
	rel()
}
