package replica_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/replica"
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
func newReplica(t *testing.T, c *testutil.Cluster, tr cluster.Transport, tick time.Duration, loadCkpt func() (uint64, error)) (*replica.Replica, *engine.Engine) {
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

// TestRefreshResubscribesADroppedReplica: the engine's retry hook on a
// replica the hub dropped — nothing pushed to advance from — has the
// loop resubscribe at once and returns a fresh snapshot, long before the
// watchdog (10s at this tick) would have noticed the silence.
func TestRefreshResubscribesADroppedReplica(t *testing.T) {
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

	if err := rep.Refresh(); err != nil {
		t.Fatal(err)
	}
	if rep.VisibleLSN() <= stale {
		t.Fatalf("Refresh returned the stale snapshot %d: %+v", stale, rep.Stats())
	}
	durable := c.SAL.DurableLSN()
	waitFor(t, "the rest of the catch-up", func() bool { return rep.VisibleLSN() >= durable })
	if got := countRows(t, eng, "worker"); got != 120 {
		t.Fatalf("replica sees %d rows after Refresh, want 120", got)
	}
	// Caught up and attached: a second Refresh has nothing to wait for.
	t0 := time.Now()
	if err := rep.Refresh(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("Refresh on a current replica took %s", d)
	}
}

// TestRefusedSubscribeRebasesOnCheckpoint: log GC ran past the
// replica's start position, so the subscription is refused; the replica
// rebases through LoadCheckpoint — once — and subscribes above it.
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
	rep, _ := newReplica(t, c, c.Transport, fastTick, func() (uint64, error) {
		loads++
		return durable, nil
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

// TestRefreshUnderTreeLockDoesNotDeadlock: a scan's descent holds the
// B+ tree's read lock across its page reads; when one misses retention
// the engine calls Refresh from under that lock. If the master split the
// root meanwhile, the advance that makes the split visible re-binds the
// tree (btree.Tree.SetRoot, the tree's write lock) while holding
// refreshMu — which Refresh needs. Loop: refreshMu → tree lock; reader:
// tree lock → refreshMu. (When the reader's own advance pops the root
// change it is worse: SetRoot on the goroutine that holds the read
// lock.) TestReplicaSeesDDLAfterOpen hangs on this about once in a hundred
// runs, at the parent commit as well.
func TestRefreshUnderTreeLockDoesNotDeadlock(t *testing.T) {
	t.Skip("ROADMAP 4e (new): Replica.advance applies DDL under refreshMu and on whichever goroutine called it; " +
		"found while deleting the pull tailer, present at the parent commit too")
	c := newFleet(t)
	if _, err := c.LoadWorkers(20); err != nil {
		t.Fatal(err)
	}
	tr := &failOneRead{Transport: c.Transport, armed: make(chan struct{}, 1),
		parked: make(chan struct{}), release: make(chan struct{})}
	rep, eng := newReplica(t, c, tr, fastTick, nil)
	if err := rep.Start(0, c.SAL.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	// No rep.Close here: on the deadlock its loop never exits.

	// A cold scan parks in the root's page read, under the tree lock.
	eng.Pool().Clear()
	tr.armed <- struct{}{}
	scanned := make(chan error, 1)
	go func() {
		_, err := scanCount(eng, "worker")
		scanned <- err
	}()
	<-tr.parked

	// The master splits the root; the replica's loop makes it visible
	// and goes on to re-bind the tree.
	insertWorkers(t, c, 20, 2000)
	mt, err := c.Engine.Table("worker")
	if err != nil {
		t.Fatal(err)
	}
	if mt.Primary.Tree.Height() < 2 {
		t.Fatal("master root never split; the test needs more rows")
	}
	var split uint64 // the new root's FormatPage
	for _, rec := range c.LogStores[0].ReadFrom(0) {
		if rec.Type == wal.TypeFormatPage && rec.Level > 0 {
			split = rec.LSN
		}
	}
	waitFor(t, "the root split to become visible", func() bool { return split != 0 && rep.VisibleLSN() >= split })

	close(tr.release) // the read fails; the engine calls Refresh
	select {
	case err := <-scanned:
		if err != nil {
			t.Error(err)
		}
		rep.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("scan never returned: Refresh under the tree's read lock deadlocked against the root re-bind")
	}
}
