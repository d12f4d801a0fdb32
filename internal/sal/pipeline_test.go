package sal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/logstore"
	"taurus/internal/page"
	"taurus/internal/pagestore"
	"taurus/internal/types"
	"taurus/internal/wal"
)

// hookTransport wraps another transport, letting a test delay or fail
// specific requests.
type hookTransport struct {
	inner cluster.Transport
	mu    sync.Mutex
	hook  func(node string, req any) error
}

func (h *hookTransport) Call(node string, req any) (any, error) {
	h.mu.Lock()
	hook := h.hook
	h.mu.Unlock()
	if hook != nil {
		if err := hook(node, req); err != nil {
			return nil, err
		}
	}
	return h.inner.Call(node, req)
}

func (h *hookTransport) setHook(f func(node string, req any) error) {
	h.mu.Lock()
	h.hook = f
	h.mu.Unlock()
}

// newHookedFixture is newFixture with a hookTransport in front of the
// in-process transport.
func newHookedFixture(t testing.TB, pagesPerSlice uint64, rf int, threshold int) (*fixture, *hookTransport) {
	t.Helper()
	tr := cluster.NewInProc()
	ht := &hookTransport{inner: tr}
	f := &fixture{tr: tr}
	logNames := []string{"log1", "log2", "log3"}
	for _, n := range logNames {
		ls := logstore.New(n)
		f.logs = append(f.logs, ls)
		tr.Register(n, ls)
	}
	psNames := []string{"ps1", "ps2", "ps3", "ps4"}
	for _, n := range psNames {
		ps := pagestore.New(n)
		f.stores = append(f.stores, ps)
		tr.Register(n, ps)
	}
	s, err := New(Config{
		Tenant: 1, Transport: ht, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: rf, PagesPerSlice: pagesPerSlice, Plugin: pagestore.PluginInnoDB,
		FlushThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.sal = s
	t.Cleanup(func() { f.sal.Close() })
	return f, ht
}

func insertRec(pageID uint64, id int64) *wal.Record {
	key := types.EncodeKey(nil, types.Row{types.NewInt(id)})
	row := types.EncodeRow(nil, idvSchema, types.Row{types.NewInt(id), types.NewInt(id % 10)})
	return &wal.Record{
		Type: wal.TypeInsertRec, PageID: pageID, Off: wal.OffAppend,
		TrxID: 5, Payload: page.EncodeLeafPayload(nil, key, row),
	}
}

// TestConcurrentCommitters drives many writers through the pipeline,
// each waiting only for durability, and verifies that every record
// reaches all three Log Stores exactly once, in LSN order, and that the
// Page Store state converges.
func TestConcurrentCommitters(t *testing.T) {
	f, _ := newHookedFixture(t, 8, 3, 16)
	const writers = 8
	const perWriter = 50
	// One page per writer so slices see concurrent traffic.
	for w := 0; w < writers; w++ {
		if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: uint64(w + 1), IndexID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := insertRec(uint64(w+1), int64(w*perWriter+i))
				if _, err := f.sal.Write(rec); err != nil {
					errs[w] = err
					return
				}
				if err := f.sal.WaitDurable(rec.LSN); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := writers + writers*perWriter
	for _, ls := range f.logs {
		if ls.Len() != want {
			t.Fatalf("log store has %d records, want %d", ls.Len(), want)
		}
		recs := ls.ReadFrom(0)
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN <= recs[i-1].LSN {
				t.Fatalf("log out of order at %d: %d after %d", i, recs[i].LSN, recs[i-1].LSN)
			}
		}
	}
	if f.sal.DurableLSN() != f.sal.CurrentLSN() {
		t.Fatalf("durable %d != current %d", f.sal.DurableLSN(), f.sal.CurrentLSN())
	}
	// After a full drain, every page holds its writer's rows.
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		raw, err := f.sal.ReadPage(uint64(w+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := page.FromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if pg.NumRecords() != perWriter {
			t.Fatalf("page %d has %d records, want %d", w+1, pg.NumRecords(), perWriter)
		}
	}
	st := f.sal.Stats()
	if st.WindowsFlushed == 0 || st.RecordsFlushed != uint64(want) {
		t.Fatalf("stats = %+v", st)
	}
	if st.PendingRecords != 0 || st.InFlightWindows != 0 {
		t.Fatalf("pipeline not drained: %+v", st)
	}
}

// TestCommitDoesNotWaitForApply blocks Page Store applies and verifies
// a commit still completes once the Log Stores acknowledge — the
// paper's separation of durability from application. The read path then
// blocks on the applied LSN until applies are released.
func TestCommitDoesNotWaitForApply(t *testing.T) {
	f, ht := newHookedFixture(t, 100, 2, 4)
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	ht.setHook(func(node string, req any) error {
		if _, ok := req.(*cluster.WriteLogsReq); ok {
			<-gate
		}
		return nil
	})
	rec := insertRec(1, 42)
	if _, err := f.sal.Write(rec); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.sal.WaitDurable(rec.LSN) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit stuck behind Page Store application")
	}
	if f.sal.DurableLSN() < rec.LSN {
		t.Fatalf("durable %d < committed %d", f.sal.DurableLSN(), rec.LSN)
	}
	// A read of the touched slice blocks until applies drain.
	readDone := make(chan error, 1)
	go func() {
		_, err := f.sal.ReadPage(1, 0)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("read returned (%v) before the slice applied", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	raw, err := f.sal.ReadPage(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumRecords() != 1 {
		t.Fatalf("applied page has %d records", pg.NumRecords())
	}
}

// TestReadFastPathSkipsWait verifies that with nothing pending a read
// goes straight to the Page Store (no flush, no wait) — the atomic
// fast path.
func TestReadFastPathSkipsWait(t *testing.T) {
	f, _ := newHookedFixture(t, 100, 2, 8)
	f.writePages(t, 2, 3)
	before := f.sal.Stats()
	for i := 0; i < 10; i++ {
		if _, err := f.sal.ReadPage(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	after := f.sal.Stats()
	if after.ApplyWaits != before.ApplyWaits {
		t.Fatalf("idle reads blocked %d times", after.ApplyWaits-before.ApplyWaits)
	}
	if after.WindowsFlushed != before.WindowsFlushed {
		t.Fatal("idle reads forced a flush")
	}
}

// TestPipelinePoisonedByLogFailure fails one Log Store and checks the
// sticky error reaches commit waiters, writers, and Flush — and that
// the durable watermark does not advance past the failure.
func TestPipelinePoisonedByLogFailure(t *testing.T) {
	f, ht := newHookedFixture(t, 100, 2, 4)
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	durableBefore := f.sal.DurableLSN()
	ht.setHook(func(node string, req any) error {
		if _, ok := req.(*cluster.LogAppendReq); ok && node == "log2" {
			return fmt.Errorf("injected: log2 down")
		}
		return nil
	})
	rec := insertRec(1, 7)
	if _, err := f.sal.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.WaitDurable(rec.LSN); err == nil {
		t.Fatal("commit must fail when a Log Store append fails")
	}
	if f.sal.DurableLSN() != durableBefore {
		t.Fatalf("durable advanced over a failed window: %d -> %d", durableBefore, f.sal.DurableLSN())
	}
	if err := f.sal.Flush(); err == nil {
		t.Fatal("Flush must surface the sticky error")
	}
	if _, err := f.sal.Write(insertRec(1, 8)); err == nil {
		t.Fatal("Write must surface the sticky error")
	}
	if _, err := f.sal.ReadPage(1, 0); err == nil {
		t.Fatal("reads must surface the sticky error")
	}
}

// TestBackpressureBoundsStaging overfills the pipeline against gated
// Page Stores and verifies writers stall (counted) instead of queueing
// unboundedly.
func TestBackpressureBoundsStaging(t *testing.T) {
	tr := cluster.NewInProc()
	ht := &hookTransport{inner: tr}
	f := &fixture{tr: tr}
	psNames := []string{"ps1"}
	for _, n := range psNames {
		ps := pagestore.New(n)
		f.stores = append(f.stores, ps)
		tr.Register(n, ps)
	}
	s, err := New(Config{
		Tenant: 1, Transport: ht, PageStores: psNames, ReplicationFactor: 1,
		PagesPerSlice: 1 << 20, Plugin: pagestore.PluginInnoDB,
		FlushThreshold: 2, MaxInFlightWindows: 2, ApplyBacklogWindows: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.sal = s
	if _, err := s.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	ht.setHook(func(node string, req any) error {
		if _, ok := req.(*cluster.WriteLogsReq); ok {
			<-gate
		}
		return nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			if _, err := s.Write(insertRec(1, int64(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The writer must stall (bounded staging) rather than finish.
	select {
	case <-done:
		t.Fatal("64 writes completed against a gated 2x2 pipeline")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	<-done
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BackpressureStalls == 0 {
		t.Fatalf("no backpressure recorded: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsAndRejects verifies Close flushes everything and that
// the SAL refuses use afterwards.
func TestCloseDrainsAndRejects(t *testing.T) {
	f, _ := newHookedFixture(t, 100, 2, 256) // threshold never reached
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sal.Write(insertRec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.Close(); err != nil {
		t.Fatal(err)
	}
	if f.logs[0].Len() != 2 {
		t.Fatalf("Close did not drain: %d records durable", f.logs[0].Len())
	}
	if _, err := f.sal.Write(insertRec(1, 2)); err == nil {
		t.Fatal("Write after Close must fail")
	}
	if err := f.sal.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestWindowsPipelineAcrossSlices checks that a multi-slice workload
// produces multiple windows whose per-slice applies all land (ordering
// per slice is exercised by the page stores' idempotent-skip counters:
// any reordering would silently drop records and fail the read-back).
func TestWindowsPipelineAcrossSlices(t *testing.T) {
	f, _ := newHookedFixture(t, 2, 2, 4) // 2 pages per slice, tiny windows
	f.writePages(t, 12, 5)
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 12; p++ {
		raw, err := f.sal.ReadPage(uint64(p), 0)
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		pg, err := page.FromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if pg.NumRecords() != 5 {
			t.Fatalf("page %d has %d records, want 5", p, pg.NumRecords())
		}
	}
	skipped := uint64(0)
	for _, ps := range f.stores {
		skipped += ps.Snapshot().LogRecordsSkipped
	}
	if skipped != 0 {
		t.Fatalf("%d records were dropped as stale redeliveries — per-slice ordering broke", skipped)
	}
	if st := f.sal.Stats(); st.WindowsFlushed < 2 {
		t.Fatalf("expected multiple windows, got %+v", st)
	}
}

// drainWindows flushes and returns the SAL's stats after the drain.
func drainWindows(t *testing.T, f *fixture) PipelineStats {
	t.Helper()
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	return f.sal.Stats()
}

// promoteSlice drives enough single-slice traffic through the shared
// lane that the slice is promoted to a dedicated lane, and fails the
// test if it is not.
func promoteSlice(t *testing.T, f *fixture, pageID uint64, rows int) {
	t.Helper()
	for i := 0; i < rows; i++ {
		if _, err := f.sal.Write(insertRec(pageID, int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := drainWindows(t, f)
	if st.Promotions == 0 {
		t.Fatalf("hot slice not promoted after %d single-slice records: %+v", rows, st)
	}
}

// newLaneFixture is newHookedFixture with explicit lane and threshold
// control.
func newLaneFixture(t testing.TB, pagesPerSlice uint64, threshold, lanes int) (*fixture, *hookTransport) {
	t.Helper()
	tr := cluster.NewInProc()
	ht := &hookTransport{inner: tr}
	f := &fixture{tr: tr}
	logNames := []string{"log1", "log2", "log3"}
	for _, n := range logNames {
		ls := logstore.New(n)
		f.logs = append(f.logs, ls)
		tr.Register(n, ls)
	}
	psNames := []string{"ps1", "ps2", "ps3", "ps4"}
	for _, n := range psNames {
		ps := pagestore.New(n)
		f.stores = append(f.stores, ps)
		tr.Register(n, ps)
	}
	s, err := New(Config{
		Tenant: 1, Transport: ht, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: 2, PagesPerSlice: pagesPerSlice, Plugin: pagestore.PluginInnoDB,
		FlushThreshold: threshold, MaxSliceLanes: lanes,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.sal = s
	t.Cleanup(func() { f.sal.Close() })
	return f, ht
}

// batchTouches reports whether an encoded log batch carries a record
// for the given page.
func batchTouches(t *testing.T, encoded []byte, pageID uint64) bool {
	t.Helper()
	recs, err := wal.DecodeAll(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.PageID == pageID {
			return true
		}
	}
	return false
}

// TestCommitWaitsOnlyOwnPrefix pins the per-transaction commit
// semantics: a committer waits on ITS max LSN, and that wait completes
// even while a later, unrelated writer's window is stuck in its fsync —
// under the old global-snapshot wait it would have blocked behind it.
func TestCommitWaitsOnlyOwnPrefix(t *testing.T) {
	f, ht := newLaneFixture(t, 100, 1, 0) // every record its own window
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	rec1 := insertRec(1, 1)
	lsn1, err := f.sal.Write(rec1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.sal.WaitDurable(lsn1); err != nil {
		t.Fatal(err)
	}
	// Gate any further log appends, then stage an unrelated record: the
	// global CurrentLSN moves past lsn1 while the new window can never
	// become durable.
	gate := make(chan struct{})
	ht.setHook(func(node string, req any) error {
		if m, ok := req.(*cluster.LogAppendReq); ok && batchTouches(t, m.Recs, 1) {
			<-gate
		}
		return nil
	})
	rec2 := insertRec(1, 2)
	lsn2, err := f.sal.Write(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 >= f.sal.CurrentLSN() || lsn2 <= lsn1 {
		t.Fatalf("per-txn wait LSN %d must be below global CurrentLSN %d", lsn1, f.sal.CurrentLSN())
	}
	// The earlier commit's wait target stays satisfied instantly.
	done := make(chan error, 1)
	go func() { done <- f.sal.WaitDurable(lsn1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitDurable(own max LSN) blocked behind a later writer's fsync")
	}
	close(gate)
	if err := f.sal.WaitDurable(lsn2); err != nil {
		t.Fatal(err)
	}
}

// TestStickyErrorConfinedToFailingLane promotes a hot slice to its own
// lane, fails that lane's log appends, and verifies: the failing lane's
// unacked commit errors; a commit whose records sit in the healthy
// shared lane below the failure point still succeeds; and everything
// durable before the failure stays acknowledged.
func TestStickyErrorConfinedToFailingLane(t *testing.T) {
	f, ht := newLaneFixture(t, 8, 8, 1) // pages 1-7 slice 0, page 9 slice 1
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 9, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	promoteSlice(t, f, 1, 64) // slice 0 → dedicated lane 1
	preDurable := f.sal.DurableLSN()

	// Fail appends that carry the hot slice's records (lane 1's windows).
	ht.setHook(func(node string, req any) error {
		if m, ok := req.(*cluster.LogAppendReq); ok && batchTouches(t, m.Recs, 1) {
			return fmt.Errorf("injected: hot lane append failure")
		}
		return nil
	})
	// Shared-lane record first (lower LSN), hot-lane record second.
	coldLSN, err := f.sal.Write(insertRec(9, 500))
	if err != nil {
		t.Fatal(err)
	}
	hotLSN, err := f.sal.Write(insertRec(1, 501))
	if err != nil {
		t.Fatal(err)
	}
	if coldLSN >= hotLSN {
		t.Fatalf("test setup: cold LSN %d must precede hot LSN %d", coldLSN, hotLSN)
	}
	// The failing lane's commit errors.
	if err := f.sal.WaitDurable(hotLSN); err == nil {
		t.Fatal("commit of the failing lane's record must surface the sticky error")
	}
	// The healthy lane's commit, below the failure point, succeeds.
	if err := f.sal.WaitDurable(coldLSN); err != nil {
		t.Fatalf("healthy-lane commit below the failure point failed: %v", err)
	}
	if f.sal.DurableLSN() < preDurable {
		t.Fatal("pre-failure durability regressed")
	}
	if f.sal.DurableLSN() >= hotLSN {
		t.Fatalf("durable watermark %d advanced over the failed window at %d", f.sal.DurableLSN(), hotLSN)
	}
	// New writes are rejected everywhere: recovery is Open's job.
	if _, err := f.sal.Write(insertRec(9, 502)); err == nil {
		t.Fatal("Write must surface the sticky error")
	}
}

// TestCloseDrainsMultipleLanes stages sub-threshold records on both the
// shared and a promoted lane, gates the Page Store applies so windows
// from BOTH lanes are in flight, and verifies Close drains everything.
func TestCloseDrainsMultipleLanes(t *testing.T) {
	f, ht := newLaneFixture(t, 8, 64, 1)
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 9, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	promoteSlice(t, f, 1, 64)
	recordsBefore := f.logs[0].Len()

	gate := make(chan struct{})
	var gated atomic.Int32
	ht.setHook(func(node string, req any) error {
		if _, ok := req.(*cluster.WriteLogsReq); ok {
			gated.Add(1)
			<-gate
		}
		return nil
	})
	// Sub-threshold traffic on both lanes: nothing seals until Close.
	const perLane = 5
	for i := 0; i < perLane; i++ {
		if _, err := f.sal.Write(insertRec(1, int64(600+i))); err != nil {
			t.Fatal(err) // hot lane
		}
		if _, err := f.sal.Write(insertRec(9, int64(600+i))); err != nil {
			t.Fatal(err) // shared lane
		}
	}
	done := make(chan error, 1)
	go func() { done <- f.sal.Close() }()
	// Close must be blocked draining gated applies on both lanes.
	select {
	case err := <-done:
		t.Fatalf("Close returned (%v) with applies gated", err)
	case <-time.After(100 * time.Millisecond):
	}
	if gated.Load() == 0 {
		t.Fatal("no applies reached the gate")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := recordsBefore + 2*perLane
	for _, ls := range f.logs {
		if ls.Len() != want {
			t.Fatalf("log store drained %d records, want %d", ls.Len(), want)
		}
		if ls.NodeStats().PendingHoles != 0 {
			t.Fatalf("pending holes after drain: %+v", ls.NodeStats())
		}
	}
	st := f.sal.Stats()
	if st.PendingRecords != 0 || st.InFlightWindows != 0 {
		t.Fatalf("pipeline not drained: %+v", st)
	}
	// Per-slice apply order survived the promotion handoff: nothing was
	// dropped as a stale redelivery.
	skipped := uint64(0)
	for _, ps := range f.stores {
		skipped += ps.Snapshot().LogRecordsSkipped
	}
	if skipped != 0 {
		t.Fatalf("%d records dropped as stale redeliveries across the lane handoff", skipped)
	}
}

// TestAdaptiveThresholdTracksLoad checks the adaptive flush threshold:
// with no pinned FlushThreshold, a lane's threshold moves off the
// initial value as arrival-rate and fsync EWMAs accumulate, and stays
// inside the configured clamp.
func TestAdaptiveThresholdTracksLoad(t *testing.T) {
	tr := cluster.NewInProc()
	f := &fixture{tr: tr}
	for _, n := range []string{"log1"} {
		ls := logstore.New(n)
		f.logs = append(f.logs, ls)
		tr.Register(n, ls)
	}
	for _, n := range []string{"ps1"} {
		tr.Register(n, pagestore.New(n))
	}
	s, err := New(Config{
		Tenant: 1, Transport: tr, LogStores: []string{"log1"}, PageStores: []string{"ps1"},
		ReplicationFactor: 1, PagesPerSlice: 1 << 20, Plugin: pagestore.PluginInnoDB,
		FlushThresholdMin: 4, FlushThresholdMax: 64, MaxSliceLanes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f.sal = s
	if _, err := s.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Commit-per-record traffic: tiny windows, in-memory "fsync" — the
	// threshold should clamp down toward the minimum.
	for i := 0; i < 200; i++ {
		lsn, err := s.Write(insertRec(1, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Lanes) != 1 {
		t.Fatalf("lanes = %d, want 1 (MaxSliceLanes: -1)", len(st.Lanes))
	}
	lane := st.Lanes[0]
	if lane.FlushThreshold < 4 || lane.FlushThreshold > 64 {
		t.Fatalf("adaptive threshold %d escaped clamp [4,64]", lane.FlushThreshold)
	}
	if lane.ArrivalPerSec == 0 || lane.FsyncMicros == 0 {
		t.Fatalf("EWMAs not fed: %+v", lane)
	}
	if lane.SealsByReason[SealDemand]+lane.SealsByReason[SealThreshold] != lane.WindowsSealed {
		t.Fatalf("seal reasons don't add up: %+v", lane)
	}
}

// TestLaneDemotionAndRepromotion pins the full lane lifecycle: a hot
// slice is promoted to the single dedicated lane; when its traffic
// stops its heat EWMA decays below demoteShare and it hands back to the
// shared lane (freeing the lane); the next hot slice is then promoted
// into the freed lane. Per-slice apply order must survive both
// handoffs.
func TestLaneDemotionAndRepromotion(t *testing.T) {
	f, _ := newLaneFixture(t, 16, 8, 1) // pages 1..16 slice 0, 17.. slice 1
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 17, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	// Phase 1: slice 0 runs hot and is promoted.
	promoteSlice(t, f, 1, 64)
	st := f.sal.Stats()
	if st.Lanes[1].Slice != 0 {
		t.Fatalf("dedicated lane not assigned slice 0: %+v", st.Lanes[1])
	}
	// Phase 2: slice 0 goes quiet while slice 1 runs hot through the
	// shared lane. Every shared-lane seal decays slice 0's heat; once
	// it drops below demoteShare the slice is demoted, the lane frees,
	// and slice 1 is promoted into it.
	var demoted, repromoted bool
	for round := 0; round < 40 && !(demoted && repromoted); round++ {
		for i := 0; i < 8; i++ {
			if _, err := f.sal.Write(insertRec(17, int64(5000+round*8+i))); err != nil {
				t.Fatal(err)
			}
		}
		st = drainWindows(t, f)
		demoted = st.Demotions >= 1
		repromoted = st.Promotions >= 2
	}
	if !demoted {
		t.Fatalf("cooled slice never demoted: %+v", st)
	}
	if !repromoted {
		t.Fatalf("freed lane never re-promoted the next hot slice: %+v", st)
	}
	if st.Lanes[1].Slice != 1 {
		t.Fatalf("dedicated lane not reassigned to slice 1: %+v", st.Lanes[1])
	}
	// Phase 3: the demoted slice keeps writing through the shared lane.
	for i := 0; i < 16; i++ {
		if _, err := f.sal.Write(insertRec(1, int64(9000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	// Apply order survived both handoffs: no record was misfiled as a
	// stale redelivery, and both pages hold every insert.
	skipped := uint64(0)
	for _, ps := range f.stores {
		skipped += ps.Snapshot().LogRecordsSkipped
	}
	if skipped != 0 {
		t.Fatalf("%d records dropped as stale redeliveries across lane handoffs", skipped)
	}
	for _, pageID := range []uint64{1, 17} {
		raw, err := f.sal.ReadPage(pageID, 0)
		if err != nil {
			t.Fatalf("page %d: %v", pageID, err)
		}
		pg, err := page.FromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if pg.NumRecords() == 0 {
			t.Fatalf("page %d lost its records across the handoffs", pageID)
		}
	}
}

// TestBarrierCompletesUnderSustainedWrites pins the checkpoint drain
// semantics: Barrier waits for the prefix staged BEFORE the call to be
// durable and applied, and returns even though concurrent writers keep
// the pipeline's pending count permanently nonzero (Flush's pending ==
// 0 moment may never come).
func TestBarrierCompletesUnderSustainedWrites(t *testing.T) {
	f := newFixture(t, 16, 2)
	defer f.sal.Close()
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 17, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// A continuous committer on an unrelated slice.
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lsn, err := f.sal.Write(insertRec(17, 100000+i))
			if err != nil {
				return
			}
			f.sal.WaitDurable(lsn)
		}
	}()
	var lastLSN uint64
	for i := 0; i < 20; i++ {
		lsn, err := f.sal.Write(insertRec(1, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	done := make(chan error, 1)
	go func() { done <- f.sal.Barrier() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Barrier starved under sustained writers")
	}
	// Everything staged before the barrier is applied: slice 0's
	// frontier covers the last pre-barrier record.
	st := f.sal.Stats()
	found := false
	for _, lane := range st.Lanes {
		for _, sl := range lane.Slices {
			if sl.Slice == 0 {
				found = true
				if sl.AppliedLSN < lastLSN {
					t.Fatalf("slice 0 applied %d < pre-barrier LSN %d", sl.AppliedLSN, lastLSN)
				}
			}
		}
	}
	if !found {
		t.Fatal("slice 0 missing from stats")
	}
	if st.DurableLSN < lastLSN {
		t.Fatalf("durable %d < pre-barrier LSN %d", st.DurableLSN, lastLSN)
	}
	close(stop)
	wg.Wait()
}

// BenchmarkWriteDurable measures a commit through the pipeline: Write
// plus WaitDurable in triplicate, Page Store application asynchronous
// (run with -cpu 1,4,8 to vary the committers). Each committer owns a
// page, re-formatted every 300 inserts so it never fills.
func BenchmarkWriteDurable(b *testing.B) {
	f, _ := newHookedFixture(b, 16, 3, 64)
	var worker atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pageID := worker.Add(1)
		for i := int64(0); pb.Next(); i++ {
			rec := insertRec(pageID, i)
			if i%300 == 0 {
				rec = &wal.Record{Type: wal.TypeFormatPage, PageID: pageID, IndexID: 1}
			}
			if _, err := f.sal.Write(rec); err != nil {
				b.Error(err)
				return
			}
			if err := f.sal.WaitDurable(rec.LSN); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := f.sal.Stats(); st.WindowsFlushed > 0 {
		b.ReportMetric(float64(st.RecordsFlushed)/float64(st.WindowsFlushed), "records/window")
	}
}
