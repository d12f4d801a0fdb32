package replica_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/obs"
	"taurus/internal/pstore"
	"taurus/internal/replica"
	"taurus/internal/sql"
	"taurus/internal/testutil"
	"taurus/internal/types"
	"taurus/internal/wal"
)

const node = "replica-1"

var (
	logNames = []string{"log1", "log2", "log3"}
	psNames  = []string{"ps1", "ps2", "ps3", "ps4"}
)

// newFleet is an in-proc master (testutil's names and sizes) whose Log
// Stores push and whose SAL relays its frontier to them.
func newFleet(t *testing.T) *testutil.Cluster {
	t.Helper()
	c, err := testutil.NewCluster(testutil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range c.LogStores {
		ls.SetPushTransport(c.Transport)
	}
	c.SAL.AddFrontierWatch()
	return c
}

// subscribeLog wraps the replica's transport and notes which Log Store
// each subscription went to.
type subscribeLog struct {
	cluster.Transport
	mu     sync.Mutex
	stores []string
}

func (s *subscribeLog) Call(n string, req any) (any, error) {
	if _, ok := req.(*cluster.LogSubscribeReq); ok {
		s.mu.Lock()
		s.stores = append(s.stores, n)
		s.mu.Unlock()
	}
	return s.Transport.Call(n, req)
}

func (s *subscribeLog) seen() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.stores...)
}

// fastTick makes the stream watchdog fire after 80ms of silence.
const fastTick = 2 * time.Millisecond

// newReplica builds a bound, registered, not yet started replica of c.
func newReplica(t *testing.T, c *testutil.Cluster, tr cluster.Transport, tick time.Duration, loadCkpt func() (*pstore.Meta, error)) (*replica.Replica, *engine.Engine) {
	t.Helper()
	rep, err := replica.New(replica.Config{
		Transport: tr, Tenant: 1, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: 3, PagesPerSlice: 64, RefreshInterval: tick,
		Name: node, Node: node, LoadCheckpoint: loadCkpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{ReadView: rep, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	rep.Bind(eng, nil)
	c.Transport.Register(node, rep)
	return rep, eng
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func scanCount(eng *engine.Engine, table string) (int, error) {
	tbl, err := eng.Table(table)
	if err != nil {
		return 0, err
	}
	n := 0
	err = eng.Scan(engine.ScanOptions{Index: tbl.Primary}, func(types.Row, []core.AggState) error {
		n++
		return nil
	})
	return n, err
}

func countRows(t *testing.T, eng *engine.Engine, table string) int {
	t.Helper()
	n, err := scanCount(eng, table)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// insertWorkers commits rows [from, to) into the master's worker table.
func insertWorkers(t *testing.T, c *testutil.Cluster, from, to int) {
	t.Helper()
	tbl, err := c.Engine.Table("worker")
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Engine.Txm().Begin()
	for i := from; i < to; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(30), types.DateFromYMD(2010, 1, 1),
			types.NewDecimal(500000), types.NewString(fmt.Sprintf("worker-%06d", i))}
		if err := c.Engine.Insert(tbl, tx, row); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := c.SAL.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStartCatchesUpByPush: Start subscribes and drives the push cycle
// itself until everything the master had committed is visible — DDL
// attached, rows readable — without one on-demand refresh.
func TestStartCatchesUpByPush(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(200); err != nil {
		t.Fatal(err)
	}
	rep, eng := newReplica(t, c, c.Transport, fastTick, nil)
	durable := c.SAL.DurableLSN()
	if err := rep.Start(0, durable); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	st := rep.Stats()
	if st.VisibleLSN < durable {
		t.Fatalf("Start returned at visible %d, want >= %d", st.VisibleLSN, durable)
	}
	if !st.Subscribed || st.StreamBatches == 0 || st.Refreshes != 0 || st.TablesAttached != 1 {
		t.Fatalf("catch-up was not by push alone: %+v", st)
	}
	if got := countRows(t, eng, "worker"); got != 200 {
		t.Fatalf("replica sees %d rows, want 200", got)
	}
}

// dropWhileWriting makes the replica unreachable while the master
// commits rows [from, to): the next push fails, the hub drops the
// subscriber without telling it, and the replica comes back reachable
// but detached, its snapshot that many commits stale.
func dropWhileWriting(t *testing.T, c *testutil.Cluster, rep *replica.Replica, from, to int) {
	t.Helper()
	c.Transport.Unregister(node)
	insertWorkers(t, c, from, to)
	waitFor(t, "the hubs to drop the unreachable subscriber", func() bool {
		for _, ls := range c.LogStores {
			if ls.Subscribers() != 0 {
				return false
			}
		}
		return true
	})
	c.Transport.Register(node, rep)
}

// TestResubscribesAfterDisconnect: a subscriber the hub dropped
// mid-stream notices the silence, resubscribes to the next Log Store in
// the rotation and catches up from its own tail — no pull fallback.
func TestResubscribesAfterDisconnect(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(50); err != nil {
		t.Fatal(err)
	}
	tr := &subscribeLog{Transport: c.Transport}
	rep, eng := newReplica(t, c, tr, fastTick, nil)
	if err := rep.Start(0, c.SAL.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	dropWhileWriting(t, c, rep, 50, 120)
	durable := c.SAL.DurableLSN()
	waitFor(t, "the resubscribed replica to catch up", func() bool { return rep.VisibleLSN() >= durable })
	if got := countRows(t, eng, "worker"); got != 120 {
		t.Fatalf("replica sees %d rows after resubscribing, want 120", got)
	}
	stores := tr.seen()
	if len(stores) < 2 || stores[len(stores)-1] == stores[0] {
		t.Fatalf("resubscribe did not rotate Log Stores: %v", stores)
	}
	if st := rep.Stats(); st.Refreshes != 0 || st.CkptResyncs != 0 {
		t.Fatalf("catch-up after the disconnect was not by push alone: %+v", st)
	}
}

// TestAwaitAboveResubscribesADroppedReplica: a statement restart's wait
// on a replica the hub dropped — nothing pushed to advance from — has
// the loop resubscribe at once and returns on a fresher snapshot, long
// before the watchdog (10s at this tick) would have noticed the silence.
func TestAwaitAboveResubscribesADroppedReplica(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(50); err != nil {
		t.Fatal(err)
	}
	rep, eng := newReplica(t, c, c.Transport, 250*time.Millisecond, nil)
	if err := rep.Start(0, c.SAL.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	stale := rep.VisibleLSN()
	dropWhileWriting(t, c, rep, 50, 120)

	t0 := time.Now()
	rep.AwaitAbove(stale)
	if rep.VisibleLSN() <= stale {
		t.Fatalf("AwaitAbove returned on the stale snapshot %d after %s: %+v", stale, time.Since(t0), rep.Stats())
	}
	durable := c.SAL.DurableLSN()
	waitFor(t, "the rest of the catch-up", func() bool { return rep.VisibleLSN() >= durable })
	if got := countRows(t, eng, "worker"); got != 120 {
		t.Fatalf("replica sees %d rows after AwaitAbove, want 120", got)
	}
	// Caught up and attached: nothing is durable past the snapshot, so
	// there is nothing to wait for.
	t0 = time.Now()
	rep.AwaitAbove(rep.VisibleLSN())
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("AwaitAbove on a current replica took %s", d)
	}
}

// stripFrontier delivers pushed frames to the replica without their
// applied frontier: records and the durable watermark arrive, but the
// visible LSN cannot pass them.
type stripFrontier struct{ rep *replica.Replica }

func (s stripFrontier) Handle(req any) (any, error) {
	if m, ok := req.(*cluster.LogBatchReq); ok {
		c := *m
		c.Frontier = nil
		return s.rep.Handle(&c)
	}
	return s.rep.Handle(req)
}

// TestAwaitAboveResubscribesAFrontierStarvedReplica: the hub dropped a
// replica that holds the master's records and durable watermark but not
// the applied frontier that makes them visible. Something durable past
// the snapshot was pushed, yet no advance passes it, so AwaitAbove still
// has the loop resubscribe, and the catch-up's frontier moves the
// snapshot long before the watchdog (10s at this tick).
func TestAwaitAboveResubscribesAFrontierStarvedReplica(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(50); err != nil {
		t.Fatal(err)
	}
	rep, eng := newReplica(t, c, c.Transport, 250*time.Millisecond, nil)
	if err := rep.Start(0, c.SAL.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	stale := rep.VisibleLSN()
	c.Transport.Register(node, stripFrontier{rep})
	insertWorkers(t, c, 50, 120)
	durable := c.SAL.DurableLSN()
	waitFor(t, "the records and the watermark without the frontier", func() bool {
		st := rep.Stats()
		return st.TailedLSN >= durable && st.DurableLSN >= durable
	})
	if v := rep.VisibleLSN(); v != stale {
		t.Fatalf("visible LSN moved %d -> %d without a frontier", stale, v)
	}
	dropWhileWriting(t, c, rep, 120, 121)

	t0 := time.Now()
	rep.AwaitAbove(stale)
	if rep.VisibleLSN() <= stale {
		t.Fatalf("AwaitAbove returned on the stale snapshot %d after %s: %+v", stale, time.Since(t0), rep.Stats())
	}
	durable = c.SAL.DurableLSN()
	waitFor(t, "the rest of the catch-up", func() bool { return rep.VisibleLSN() >= durable })
	if got := countRows(t, eng, "worker"); got != 121 {
		t.Fatalf("replica sees %d rows after AwaitAbove, want 121", got)
	}
}

// TestRefusedSubscribeRebasesOnCheckpoint: log GC ran past the
// replica's start position, so the subscription is refused; the replica
// rebases through LoadCheckpoint — once — merges the checkpoint's
// catalog, runs the post-attach callback at the rebased snapshot, and
// subscribes above it.
func TestRefusedSubscribeRebasesOnCheckpoint(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(50); err != nil {
		t.Fatal(err)
	}
	durable := c.SAL.DurableLSN()
	if _, err := c.SAL.TruncateLogs(durable + 1); err != nil {
		t.Fatal(err)
	}
	loads := 0
	rep, eng := newReplica(t, c, c.Transport, fastTick, func() (*pstore.Meta, error) {
		loads++
		meta := c.Engine.CheckpointBase()
		meta.AppliedLSN = durable
		return meta, nil
	})
	var seen []int
	rep.Bind(eng, func(table string) {
		n, err := scanCount(eng, table)
		if err != nil {
			t.Errorf("post-attach scan of %s: %v", table, err)
		}
		seen = append(seen, n)
	})
	if err := rep.Start(0, durable); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	st := rep.Stats()
	if loads != 1 || st.CkptResyncs != 1 {
		t.Fatalf("LoadCheckpoint ran %d times, CkptResyncs=%d; want 1 and 1", loads, st.CkptResyncs)
	}
	if !st.Subscribed || st.VisibleLSN < durable || st.TailedLSN < durable {
		t.Fatalf("replica did not resume above the checkpoint (%d): %+v", durable, st)
	}
	if len(seen) != 1 || seen[0] != 50 {
		t.Fatalf("post-attach scans after the rebase saw %v; want one table of 50 rows", seen)
	}
	if got := countRows(t, eng, "worker"); got != 50 {
		t.Fatalf("replica sees %d rows after the rebase, want 50", got)
	}
}

// TestFailedCheckpointLoadIsRecorded: when the rebase cannot load the
// master's checkpoint, the replica falls back to a blind reset at the
// truncation watermark, and the flight recorder's resync event says why.
func TestFailedCheckpointLoadIsRecorded(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SAL.TruncateLogs(c.SAL.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	events := obs.NewEventRing(0)
	rep, err := replica.New(replica.Config{
		Transport: c.Transport, Tenant: 1, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: 3, PagesPerSlice: 64, RefreshInterval: fastTick,
		Name: node, Node: node, Events: events,
		LoadCheckpoint: func() (*pstore.Meta, error) { return nil, errors.New("injected: meta unreadable") },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{ReadView: rep, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	rep.Bind(eng, nil)
	c.Transport.Register(node, rep)
	if err := rep.Start(0, 0); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, ev := range events.Events() {
		if ev.Kind == obs.EventCheckpointResync {
			if !strings.Contains(ev.Detail, "injected: meta unreadable") {
				t.Fatalf("resync event does not carry the load error: %q", ev.Detail)
			}
			return
		}
	}
	t.Fatalf("no %s event: %+v", obs.EventCheckpointResync, events.Events())
}

func TestNewRejectsEmptyNode(t *testing.T) {
	_, err := replica.New(replica.Config{Transport: cluster.NewInProc(),
		LogStores: logNames, PageStores: psNames})
	if err == nil {
		t.Fatal("New accepted a config without Node: the Log Stores would have nowhere to push")
	}
}

// failOneRead wraps the replica's transport: once armed, the next page
// read parks until released and then fails, the way a read fails when
// its version aged out of the Page Stores' retention.
type failOneRead struct {
	cluster.Transport
	armed   chan struct{} // one token: the next ReadPageReq takes it
	parked  chan struct{} // closed when that read is parked
	release chan struct{} // closed to let it fail
}

func (f *failOneRead) Call(n string, req any) (any, error) {
	if _, ok := req.(*cluster.ReadPageReq); ok {
		select {
		case <-f.armed:
			close(f.parked)
			<-f.release
			return nil, fmt.Errorf("injected: page version not retained")
		default:
		}
	}
	return f.Transport.Call(n, req)
}

// failReads wraps the replica's transport and fails the next n page
// reads.
type failReads struct {
	cluster.Transport
	n atomic.Int32
}

func (f *failReads) Call(n string, req any) (any, error) {
	if _, ok := req.(*cluster.ReadPageReq); ok && f.n.Add(-1) >= 0 {
		return nil, fmt.Errorf("injected: page version not retained")
	}
	return f.Transport.Call(n, req)
}

// TestStatementRestartsOnceOnASnapshotMiss: a SELECT whose page read
// misses its snapshot restarts once, at the statement boundary; a miss
// in the restarted run is the statement's error. Every failed read is
// counted in Stats.Refreshes.
func TestStatementRestartsOnceOnASnapshotMiss(t *testing.T) {
	c := newFleet(t)
	if _, err := c.LoadWorkers(50); err != nil {
		t.Fatal(err)
	}
	tr := &failReads{Transport: c.Transport}
	rep, eng := newReplica(t, c, tr, fastTick, nil)
	if err := rep.Start(0, c.SAL.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	s := sql.NewSession(eng)
	s.ReadOnly = true

	eng.Pool().Clear()
	tr.n.Store(1)
	res, err := s.Exec("SELECT COUNT(*) FROM worker")
	if err != nil {
		t.Fatalf("one miss: %v, want the restarted statement to succeed", err)
	}
	if got := res.Rows[0][0].I; got != 50 {
		t.Fatalf("restarted statement counts %d rows, want 50", got)
	}

	eng.Pool().Clear()
	tr.n.Store(2)
	_, err = s.Exec("SELECT COUNT(*) FROM worker")
	var miss *engine.SnapshotMissError
	if !errors.As(err, &miss) {
		t.Fatalf("two misses: %v, want a SnapshotMissError from the one restart", err)
	}
	if st := rep.Stats(); st.Refreshes != 3 {
		t.Fatalf("Refreshes = %d, want 3 (one per failed read)", st.Refreshes)
	}
}

// TestReadMissUnderTreeLockReturnsSnapshotMiss: an NDP scan's
// CollectBatch holds the B+ tree's read lock across its read of a
// height-2 root. While that read is parked, the master raises the root
// to height 3 and the replica's loop makes the raise visible. Then the
// read fails. The scan must return a SnapshotMissError at once —
// nothing on the reader's side advances the replica or waits on the
// loop under the lock — and a re-scan reads the raised root at the same
// page ID and counts every row.
func TestReadMissUnderTreeLockReturnsSnapshotMiss(t *testing.T) {
	c := newFleet(t)
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindString, NotNull: true},
		types.Column{Name: "v", Kind: types.KindInt, NotNull: true})
	mt, err := c.Engine.CreateTable("wide", schema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// 1.5 KB keys: a leaf record carries the key twice (key and row), so
	// the tree is two levels high after 6 rows and three at about 50.
	pad := strings.Repeat("k", 1500)
	rows := 0
	growTo := func(height int) {
		for mt.Primary.Tree.Height() < height {
			tx := c.Engine.Txm().Begin()
			row := types.Row{types.NewString(fmt.Sprintf("%06d%s", rows, pad)), types.NewInt(int64(rows))}
			if err := c.Engine.Insert(mt, tx, row); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			rows++
		}
		if err := c.SAL.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	growTo(2)
	tr := &failOneRead{Transport: c.Transport, armed: make(chan struct{}, 1),
		parked: make(chan struct{}), release: make(chan struct{})}
	rep, eng := newReplica(t, c, tr, fastTick, nil)
	if err := rep.Start(0, c.SAL.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	// No deferred rep.Close: on a deadlock its loop never exits.
	tbl, err := eng.Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	if h := tbl.Primary.Tree.Height(); h != 2 {
		t.Fatalf("replica tree height %d at start, want 2", h)
	}

	// A cold NDP scan parks in the root's page read, under the tree lock.
	eng.Pool().Clear()
	tr.armed <- struct{}{}
	scanned := make(chan error, 1)
	go func() {
		scanned <- eng.Scan(engine.ScanOptions{Index: tbl.Primary, NDP: &engine.NDPPush{}},
			func(types.Row, []core.AggState) error { return nil })
	}()
	<-tr.parked

	// The master raises the root again; the replica's loop makes the
	// raise visible.
	growTo(3)
	var raise uint64 // the FormatPage that rewrites the root at level 2
	for _, rec := range c.LogStores[0].ReadFrom(0) {
		if rec.Type == wal.TypeFormatPage && rec.PageID == mt.Primary.Tree.Root() && rec.Level == 2 {
			raise = rec.LSN
		}
	}
	if raise == 0 {
		t.Fatal("no height-3 root FormatPage in the log")
	}
	waitFor(t, "the root raise to become visible", func() bool { return rep.VisibleLSN() >= raise })

	close(tr.release) // the parked read fails
	select {
	case err := <-scanned:
		var miss *engine.SnapshotMissError
		if !errors.As(err, &miss) {
			t.Fatalf("scan returned %v, want a SnapshotMissError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scan never returned: the failed read under the tree's read lock blocked")
	}
	defer rep.Close()
	if tbl.Primary.Tree.Root() != mt.Primary.Tree.Root() {
		t.Fatalf("replica root %d != master root %d", tbl.Primary.Tree.Root(), mt.Primary.Tree.Root())
	}
	if h := tbl.Primary.Tree.Height(); h != 3 {
		t.Fatalf("replica tree height %d after the raise, want 3", h)
	}
	// Re-scan once everything the master wrote is visible.
	durable := c.SAL.DurableLSN()
	waitFor(t, "the replica to catch up", func() bool { return rep.VisibleLSN() >= durable })
	if got := countRows(t, eng, "wide"); got != rows {
		t.Fatalf("re-scan counts %d rows, want %d", got, rows)
	}
}
