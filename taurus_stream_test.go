package taurus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplicaStreamKillAndResubscribe: cutting a push replica off the
// transport drops it from the hub; once reachable again the watchdog
// resubscribes and the replica converges to the exact row count — no
// gaps (every record redelivered) and no duplicates (ingest dedupe).
func TestReplicaStreamKillAndResubscribe(t *testing.T) {
	master, err := Open(Config{PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE kv (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM kv", 100, 5*time.Second); got != 100 {
		t.Fatalf("pre-kill count = %d, want 100", got)
	}
	// Kill: the replica's node vanishes from the transport. The next
	// pushed frame fails and the hub drops the subscriber.
	master.tr.Unregister(rep.repName)
	for i := 100; i < 150; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Reconnect: the watchdog notices the dead stream and resubscribes
	// from its contiguous tail.
	master.tr.Register(rep.repName, rep.rep)
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM kv", 150, 10*time.Second); got != 150 {
		t.Fatalf("post-reconnect count = %d, want 150 exactly (gap or duplicate)", got)
	}
	if st := rep.ReplicaStats(); !st.Subscribed {
		t.Fatalf("replica did not resubscribe: %+v", st)
	}
}

// TestReplicaGCOverrunCheckpointResync: log GC overruns a detached push
// replica's tail; at resubscribe the store refuses the stale start and
// the replica rebases on the master's checkpoint instead of replaying a
// log range that no longer exists.
func TestReplicaGCOverrunCheckpointResync(t *testing.T) {
	master, err := Open(Config{DataDir: t.TempDir(), PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE ck (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO ck VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM ck", 200, 5*time.Second); got != 200 {
		t.Fatalf("pre-detach count = %d, want 200", got)
	}
	detachTail := rep.ReplicaStats().TailedLSN
	master.tr.Unregister(rep.repName)
	// The master keeps writing; the failed pushes drop the subscriber,
	// unpinning GC.
	for i := 200; i < 600; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO ck VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	overrunTail(t, master, detachTail)
	// Reconnect: the resubscribe is refused (tail truncated away) and
	// the replica rebases on the checkpoint.
	master.tr.Register(rep.repName, rep.rep)
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM ck", 600, 10*time.Second); got != 600 {
		t.Fatalf("post-resync count = %d, want 600", got)
	}
	st := rep.ReplicaStats()
	if st.CkptResyncs == 0 {
		t.Fatalf("no checkpoint resync recorded: %+v", st)
	}
	if !st.Subscribed {
		t.Fatalf("replica not streaming after resync: %+v", st)
	}
}

// overrunTail checkpoints and truncates the master's logs until GC
// actually passes a detached replica's tail (a resubscribe-in-flight
// ghost subscriber can clamp one sweep).
func overrunTail(t *testing.T, master *DB, tail uint64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if _, err := master.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := master.TruncateLogs(); err != nil {
			t.Fatal(err)
		}
		for _, ls := range master.LogStoreStats() {
			if ls.TruncatedLSN > tail {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("log GC never passed the detached tail %d", tail)
}

// TestReplicaQueriesThroughCheckpointRebase: SELECTs keep running on a
// replica while log GC overruns its detached tail and it rebases on the
// master's checkpoint. The rebase merges roots that split while the
// replica was detached before it raises the visible LSN, so a reader can
// meet a root newer than its snapshot; that read misses, and the
// statement restarts above the snapshot instead of failing. Each
// reader's counts never go backwards and stay between the pre-detach and
// the final count, and a table created while the replica was detached
// gets statistics at the rebased snapshot.
func TestReplicaQueriesThroughCheckpointRebase(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a checkpoint rebase under concurrent readers (~2 s)")
	}
	master, err := Open(Config{DataDir: t.TempDir(), PagesPerSlice: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Exec(`CREATE TABLE ck (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	const before, after = 200, 600
	for i := 0; i < before; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO ck VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM ck", before, 5*time.Second); got != before {
		t.Fatalf("pre-detach count = %d, want %d", got, before)
	}
	detachTail := rep.ReplicaStats().TailedLSN
	master.tr.Unregister(rep.repName)

	// Readers run from the detach through the rebase: the watchdog may
	// resubscribe (and so rebase) before the test reconnects.
	const readers = 4
	counts := make([][]int64, readers)
	errs := make([]error, readers)
	var sawFinal atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			final := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rep.Exec("SELECT COUNT(*) FROM ck")
				if err != nil {
					errs[g] = err
					return
				}
				n := res.Rows[0][0].I
				counts[g] = append(counts[g], n)
				if n == after && !final {
					final = true
					sawFinal.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	for i := before; i < after; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO ck VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := master.Exec(`CREATE TABLE late (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := master.Exec(fmt.Sprintf("INSERT INTO late VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	overrunTail(t, master, detachTail)
	master.tr.Register(rep.repName, rep.rep)
	deadline := time.Now().Add(10 * time.Second)
	for sawFinal.Load() < readers && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			t.Errorf("reader %d: %v", g, errs[g])
		}
		prev := int64(before)
		for _, n := range counts[g] {
			if n < prev || n > after {
				t.Fatalf("reader %d counted %d after %d; want a non-decreasing count in [%d, %d]: %v",
					g, n, prev, before, after, counts[g])
			}
			prev = n
		}
		if prev != after {
			t.Errorf("reader %d ended at %d, want %d", g, prev, after)
		}
	}
	st := rep.ReplicaStats()
	if st.CkptResyncs == 0 {
		t.Fatalf("no checkpoint resync recorded: %+v", st)
	}
	if got := waitReplicaCount(t, rep, "SELECT COUNT(*) FROM late", 20, 5*time.Second); got != 20 {
		t.Fatalf("replica counts %d rows in the table created while detached, want 20", got)
	}
	if rep.session.Cat.Stats("late") == nil {
		t.Fatal("the table the rebase attached has no optimizer statistics")
	}
}
