package taurus

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitReplicaCount polls a replica SELECT until it returns want rows (or
// the deadline passes), returning the last observed count. Replicas
// trail the master by the replication lag; tests bound it instead of
// assuming zero.
func waitReplicaCount(t *testing.T, rep *DB, query string, want int64, deadline time.Duration) int64 {
	t.Helper()
	var last int64 = -1
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		res, err := rep.Exec(query)
		if err != nil {
			t.Fatalf("replica query: %v", err)
		}
		last = res.Rows[0][0].I
		if last == want {
			return last
		}
		time.Sleep(2 * time.Millisecond)
	}
	return last
}

func TestReplicaServesReadsAndCatchesUp(t *testing.T) {
	master, err := Open(Config{PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE kv (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if !rep.IsReplica() || master.IsReplica() {
		t.Fatal("IsReplica misreports")
	}
	// The replica opened caught up: the pre-existing rows are visible.
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM kv", 200, 5*time.Second); got != 200 {
		t.Fatalf("initial catch-up: count = %d, want 200", got)
	}
	// A commit on the master becomes visible after catch-up.
	for i := 200; i < 250; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM kv", 250, 5*time.Second); got != 250 {
		t.Fatalf("post-write catch-up: count = %d, want 250", got)
	}
	// Predicated reads agree with the master (NDP path included).
	mres, err := master.Exec("SELECT COUNT(*) FROM kv WHERE v < 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM kv WHERE v < 3", mres.Rows[0][0].I, 5*time.Second); got != mres.Rows[0][0].I {
		t.Fatalf("predicate count = %d, master %d", got, mres.Rows[0][0].I)
	}
	st := rep.ReplicaStats()
	if st.VisibleLSN == 0 || st.RecordsTailed == 0 {
		t.Fatalf("replica stats not populated: %+v", st)
	}
	if !st.Subscribed || st.StreamBatches == 0 {
		t.Fatalf("replica is not consuming the push stream: %+v", st)
	}
	if master.WritePathStats().FrontierWatchers != 1 {
		t.Fatal("master does not report the replica's frontier watch")
	}
}

func TestReplicaRejectsDML(t *testing.T) {
	master, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE kv (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Exec("INSERT INTO kv VALUES (1, 1)"); err == nil {
		t.Fatal("INSERT on a replica must fail")
	}
	if _, err := rep.Exec("CREATE TABLE other (id BIGINT, PRIMARY KEY(id))"); err == nil {
		t.Fatal("CREATE TABLE on a replica must fail")
	}
	// And the master is unaffected.
	if _, err := master.Exec("INSERT INTO kv VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSeesDDLAfterOpen(t *testing.T) {
	master, err := Open(Config{PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// DDL and rows arriving after the replica opened attach via the
	// tailed catalog records.
	if _, err := master.Exec(`CREATE TABLE late (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	const rows = 1500
	for i := 0; i < rows; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO late VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM late", rows, 10*time.Second); got != rows {
		t.Fatalf("late table count = %d, want %d", got, rows)
	}
	if rep.ReplicaStats().TablesAttached == 0 {
		t.Fatal("no tables attached from the tail")
	}
	// Enough rows to raise the master's root; the replica reads the
	// raised root at the page ID the catalog record named.
	mt, err := master.Engine().Table("late")
	if err != nil {
		t.Fatal(err)
	}
	if mt.Primary.Tree.Height() < 2 {
		t.Fatalf("master tree never split (height %d); test needs more rows", mt.Primary.Tree.Height())
	}
	rt, err := rep.Engine().Table("late")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Primary.Tree.Root() != mt.Primary.Tree.Root() {
		t.Fatalf("replica root %d != master root %d", rt.Primary.Tree.Root(), mt.Primary.Tree.Root())
	}
	if h := rt.Primary.Tree.Height(); h < 2 {
		t.Fatalf("replica tree height %d, want >= 2", h)
	}
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM late", rows, 10*time.Second); got != rows {
		t.Fatalf("late table count after the raise = %d, want %d", got, rows)
	}
}

// TestReplicaMonotonicAndDurableReads drives a continuous writer on the
// master while a replica reads: counts never decrease (monotonic reads
// across refreshes) and the replica's visible LSN never passes the
// master's durable watermark (a replica never observes a non-durable
// LSN).
func TestReplicaMonotonicAndDurableReads(t *testing.T) {
	master, err := Open(Config{PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE mono (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	stop := make(chan struct{})
	var writerErr error
	// started counts INSERTs handed to the master, wrote those that
	// returned: a row turns durable, and may show on the replica,
	// before its Exec returns, so only started bounds what is visible.
	var started, wrote atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			started.Add(1)
			if _, err := master.Exec(fmt.Sprintf("INSERT INTO mono VALUES (%d, %d)", i, i)); err != nil {
				writerErr = err
				return
			}
			wrote.Add(1)
		}
	}()
	var last int64 = -1
	for i := 0; i < 200; i++ {
		res, err := rep.Exec("SELECT COUNT(*) FROM mono")
		if err != nil {
			t.Fatalf("replica read %d: %v", i, err)
		}
		n := res.Rows[0][0].I
		if n < last {
			t.Fatalf("non-monotonic read: %d after %d", n, last)
		}
		last = n
		// The replica must never see rows the master has not durably
		// committed: the inserts started so far are an upper bound.
		if committed := started.Load(); n > committed {
			t.Fatalf("replica count %d exceeds master inserts %d", n, committed)
		}
		if vis, dur := rep.ReplicaStats().VisibleLSN, master.DurableLSN(); vis > dur {
			t.Fatalf("visible LSN %d beyond durable %d", vis, dur)
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	// Final convergence.
	want := wrote.Load()
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM mono", want, 10*time.Second); got != want {
		t.Fatalf("converged count = %d, want %d", got, want)
	}
}

// TestReplicaKillAndReopenMidCheckpoint opens a replica against a
// master that is continuously writing and checkpointing, kills it, and
// opens a fresh one mid-stream: the new replica bootstraps from the
// latest checkpoint meta plus the log tail and converges.
func TestReplicaKillAndReopenMidCheckpoint(t *testing.T) {
	dir, err := os.MkdirTemp("", "taurus-replica-ckpt-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	master, err := Open(Config{DataDir: dir, PagesPerSlice: 64, CheckpointInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE ck (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writerErr error
	var wrote atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := master.Exec(fmt.Sprintf("INSERT INTO ck VALUES (%d, %d)", i, i)); err != nil {
				writerErr = err
				return
			}
			wrote.Add(1)
		}
	}()
	// First replica: verify it works, then kill it.
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := rep.Exec("SELECT COUNT(*) FROM ck"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("first replica read: %v", err)
	}
	rep.Close()
	// Let the master write and checkpoint some more, then open a fresh
	// replica mid-checkpoint-stream.
	time.Sleep(60 * time.Millisecond)
	rep2, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if res, err := rep2.Exec("SELECT COUNT(*) FROM ck"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("reopened replica read: %v", err)
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	want := wrote.Load()
	if got := waitReplicaCount(t, rep2, "SELECT COUNT(*) FROM ck", want, 10*time.Second); got != want {
		t.Fatalf("reopened replica converged at %d, want %d", got, want)
	}
	// The second replica bootstrapped from a checkpoint: its tail did
	// not start at LSN 0.
	if st := rep2.ReplicaStats(); st.VisibleLSN == 0 {
		t.Fatalf("reopened replica stats: %+v", st)
	}
}
