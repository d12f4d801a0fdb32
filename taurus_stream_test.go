package taurus

import (
	"fmt"
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
	rep, err := OpenReplica(Config{Master: master, ReplicaRefreshInterval: 2 * time.Millisecond})
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
	rep, err := OpenReplica(Config{Master: master, ReplicaRefreshInterval: 2 * time.Millisecond})
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
	// Checkpoint and truncate until GC actually passes the detached tail
	// (a resubscribe-in-flight ghost subscriber can clamp one sweep).
	overran := false
	for i := 0; i < 200 && !overran; i++ {
		if _, err := master.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := master.TruncateLogs(); err != nil {
			t.Fatal(err)
		}
		for _, ls := range master.LogStoreStats() {
			if ls.TruncatedLSN > detachTail {
				overran = true
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !overran {
		t.Fatalf("log GC never passed the detached tail %d", detachTail)
	}
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
