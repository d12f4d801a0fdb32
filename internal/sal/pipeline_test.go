package sal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/logstore"
	"taurus/internal/obs"
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
	if st.SealsByReason[SealDemand]+st.SealsByReason[SealThreshold] != st.WindowsFlushed {
		t.Fatalf("seal reasons don't add up: %+v", st)
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
	f, ht := newHookedFixture(t, 100, 2, 1) // every record its own window
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

// TestUndemandedRecordsStayStaged pins the seal rule: a window below
// the threshold seals only when a waiter needs one of its records. A
// window turning durable must not seal records nobody waits for (a
// statement still staging would be split across Log Store batches).
func TestUndemandedRecordsStayStaged(t *testing.T) {
	f, ht := newHookedFixture(t, 100, 2, 64)
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	ht.setHook(func(node string, req any) error {
		if _, ok := req.(*cluster.LogAppendReq); ok {
			<-gate
		}
		return nil
	})
	sealed := f.sal.Stats().WindowsFlushed
	lsnA, err := f.sal.Write(insertRec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- f.sal.WaitDurable(lsnA) }()
	for f.sal.Stats().WindowsFlushed == sealed {
		time.Sleep(time.Millisecond)
	}
	// Staged while A's window is in flight; nobody waits for them.
	var lsnB uint64
	for i := int64(2); i <= 3; i++ {
		if lsnB, err = f.sal.Write(insertRec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if st := f.sal.Stats(); st.WindowsFlushed != sealed+1 || st.DurableLSN >= lsnB-1 {
		t.Fatalf("undemanded records were sealed: %d windows (want %d), durable %d", st.WindowsFlushed, sealed+1, st.DurableLSN)
	}
	if err := f.sal.WaitDurable(lsnB); err != nil {
		t.Fatal(err)
	}
	if st := f.sal.Stats(); st.WindowsFlushed != sealed+2 {
		t.Fatalf("demanded records sealed in %d windows, want one", st.WindowsFlushed-sealed-1)
	}
}

// TestStickyErrorConfinedToFailingLane fails the Log Store appends of
// one window while an earlier window is still in flight and verifies:
// the failed window's commit errors; the earlier window's commit, below
// the failure point, still succeeds; and the durable watermark never
// passes the failed window.
func TestStickyErrorConfinedToFailingLane(t *testing.T) {
	f, ht := newHookedFixture(t, 8, 2, 1)
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 1, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sal.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: 9, IndexID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.sal.Flush(); err != nil {
		t.Fatal(err)
	}
	preDurable := f.sal.DurableLSN()

	// Page 1's appends fail; page 9's append to log1 is held until the
	// failure has happened, so its window is still in flight then.
	release := make(chan struct{})
	ht.setHook(func(node string, req any) error {
		m, ok := req.(*cluster.LogAppendReq)
		switch {
		case ok && batchTouches(t, m.Recs, 1):
			return fmt.Errorf("injected: append failure")
		case ok && node == "log1" && batchTouches(t, m.Recs, 9):
			<-release
		}
		return nil
	})
	sealed := f.sal.Stats().WindowsFlushed
	earlyLSN, err := f.sal.Write(insertRec(9, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Page 9's record seals alone (threshold 1) before page 1's is staged.
	for f.sal.Stats().WindowsFlushed == sealed {
		time.Sleep(time.Millisecond)
	}
	failLSN, err := f.sal.Write(insertRec(1, 501))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.sal.WaitDurable(failLSN); err == nil {
		t.Fatal("commit of the failed window's record must surface the sticky error")
	}
	close(release)
	if err := f.sal.WaitDurable(earlyLSN); err != nil {
		t.Fatalf("commit below the failure point failed: %v", err)
	}
	if f.sal.DurableLSN() < preDurable {
		t.Fatal("pre-failure durability regressed")
	}
	if f.sal.DurableLSN() >= failLSN {
		t.Fatalf("durable watermark %d advanced over the failed window at %d", f.sal.DurableLSN(), failLSN)
	}
	// New writes are rejected: recovery is Open's job.
	if _, err := f.sal.Write(insertRec(9, 502)); err == nil {
		t.Fatal("Write must surface the sticky error")
	}
}

// TestSlowSliceStallsOnlyItsWriters gates the Page Store applies of
// slice A and verifies the apply backlog bound is per slice: A's writer
// stalls at the bound while slice B's records are still staged, made
// durable and applied.
func TestSlowSliceStallsOnlyItsWriters(t *testing.T) {
	tr := cluster.NewInProc()
	ht := &hookTransport{inner: tr}
	for _, n := range []string{"log1", "ps1", "ps2"} {
		if n == "log1" {
			tr.Register(n, logstore.New(n))
		} else {
			tr.Register(n, pagestore.New(n))
		}
	}
	s, err := New(Config{
		Tenant: 1, Transport: ht, LogStores: []string{"log1"}, PageStores: []string{"ps1", "ps2"},
		ReplicationFactor: 1, PagesPerSlice: 8, Plugin: pagestore.PluginInnoDB,
		FlushThreshold: 1, ApplyBacklogWindows: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const pageA, pageB = 1, 9 // slice 0 and slice 1
	for _, p := range []uint64{pageA, pageB} {
		if _, err := s.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: p, IndexID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	ht.setHook(func(node string, req any) error {
		if m, ok := req.(*cluster.WriteLogsReq); ok && m.SliceID == 0 {
			<-gate
		}
		return nil
	})
	const aWrites = 8
	var aDone atomic.Int32
	aErr := make(chan error, 1)
	go func() {
		for i := 0; i < aWrites; i++ {
			lsn, err := s.Write(insertRec(pageA, int64(i)))
			if err == nil {
				err = s.WaitDurable(lsn)
			}
			if err != nil {
				aErr <- err
				return
			}
			aDone.Add(1)
		}
		aErr <- nil
	}()
	// A's writer stalls once its slice holds the bound's worth of
	// durable, unapplied batches.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().BackpressureStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slice A's writer never stalled on its apply backlog")
		}
		time.Sleep(time.Millisecond)
	}
	stalledAt := aDone.Load()
	if stalledAt >= aWrites {
		t.Fatalf("all %d slice-A writes finished against a gated slice", aWrites)
	}
	// Slice B keeps flowing: staged, durable and applied.
	bDone := make(chan error, 1)
	var raw []byte
	go func() {
		for i := 0; i < 2*aWrites; i++ {
			lsn, err := s.Write(insertRec(pageB, int64(i)))
			if err == nil {
				err = s.WaitDurable(lsn)
			}
			if err != nil {
				bDone <- err
				return
			}
		}
		var err error
		raw, err = s.ReadPage(pageB, 0)
		bDone <- err
	}()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("slice B stalled behind slice A's apply backlog")
	}
	pg, err := page.FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumRecords() != 2*aWrites {
		t.Fatalf("slice B's page has %d records, want %d", pg.NumRecords(), 2*aWrites)
	}
	if got := aDone.Load(); got != stalledAt {
		t.Fatalf("slice A's writer progressed (%d -> %d) while its slice was gated", stalledAt, got)
	}
	release()
	if err := <-aErr; err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkWriteSealsFullWindows stages a bulk load nobody waits on and
// then drains it with Flush: with no FlushThreshold configured, every
// threshold seal carries at least DefaultFlushThreshold records, and
// only the final Flush may seal a short window.
func TestBulkWriteSealsFullWindows(t *testing.T) {
	tr := cluster.NewInProc()
	tr.Register("log1", logstore.New("log1"))
	tr.Register("ps1", pagestore.New("ps1"))
	events := obs.NewEventRing(1024)
	s, err := New(Config{
		Tenant: 1, Transport: tr, LogStores: []string{"log1"}, PageStores: []string{"ps1"},
		ReplicationFactor: 1, PagesPerSlice: 1 << 20, Plugin: pagestore.PluginInnoDB,
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records = 10 * DefaultFlushThreshold
	for i := 0; i < records; i++ {
		if _, err := s.Write(&wal.Record{Type: wal.TypeFormatPage, PageID: uint64(i + 1), IndexID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RecordsFlushed != records {
		t.Fatalf("flushed %d records, want %d", st.RecordsFlushed, records)
	}
	if st.SealsByReason[SealDemand] > 1 {
		t.Fatalf("%d demand seals, want at most Flush's: %+v", st.SealsByReason[SealDemand], st)
	}
	var seals uint64
	for _, ev := range events.Events() {
		if ev.Kind != obs.EventWindowSeal {
			continue
		}
		seals++
		var reason string
		var n int
		if _, err := fmt.Sscanf(ev.Detail, "%s %d recs", &reason, &n); err != nil {
			t.Fatalf("seal event %q: %v", ev.Detail, err)
		}
		if reason == SealThreshold+"," && n < DefaultFlushThreshold {
			t.Fatalf("threshold seal of %d records, want >= %d", n, DefaultFlushThreshold)
		}
	}
	if seals != st.WindowsFlushed {
		t.Fatalf("%d seal events for %d windows", seals, st.WindowsFlushed)
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
	for _, sl := range st.Slices {
		if sl.Slice == 0 {
			found = true
			if sl.AppliedLSN < lastLSN {
				t.Fatalf("slice 0 applied %d < pre-barrier LSN %d", sl.AppliedLSN, lastLSN)
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
