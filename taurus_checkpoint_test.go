package taurus

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkpointConfig is durableConfig plus small log segments, so
// watermark-driven GC has sealed segments to reclaim.
func checkpointConfig(dir string) Config {
	cfg := durableConfig(dir)
	cfg.LogSegmentBytes = 2048
	return cfg
}

func sumApplied(db *DB) (applied, skipped uint64) {
	for _, st := range db.PageStoreStats() {
		applied += st.LogRecordsApplied
		skipped += st.LogRecordsSkipped
	}
	return applied, skipped
}

// TestCheckpointFastPath is the core recovery fast path: kill-and-reopen
// with a checkpoint present must not re-apply records at or below the
// checkpoint LSN — recovery replays only the log tail, which the Page
// Store apply/skip counters prove.
func TestCheckpointFastPath(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 300)
	res, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Watermark == 0 || res.SlicesWritten == 0 || res.PagesWritten == 0 {
		t.Fatalf("checkpoint result = %+v", res)
	}
	// A second checkpoint with no new writes is a no-op (all clean).
	res2, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res2.SlicesWritten != 0 || res2.SlicesClean == 0 {
		t.Fatalf("idle checkpoint rewrote slices: %+v", res2)
	}
	insertWorkers(t, db, 300, 50)
	// Crash: no Close, no flush.
	db = nil

	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	sum := db2.RecoverySummary()
	if sum.CheckpointLSN != res.Watermark {
		t.Fatalf("recovered from LSN %d, checkpoint wrote %d", sum.CheckpointLSN, res.Watermark)
	}
	if sum.RestoredSlices == 0 || sum.RestoredPages == 0 || sum.CorruptCheckpoints != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.TailRecords == 0 || sum.TailRecords > 200 {
		t.Fatalf("tail = %d records, want the post-checkpoint suffix only", sum.TailRecords)
	}
	// The fast path must not re-deliver the checkpointed prefix: every
	// record a Page Store saw (applied or skipped as idempotent
	// redelivery) came from the tail, in triplicate.
	applied, skipped := sumApplied(db2)
	if applied == 0 {
		t.Fatal("no tail records applied")
	}
	if applied+skipped > uint64(sum.TailRecords)*3 {
		t.Fatalf("page stores processed %d+%d records for a %d-record tail — prefix re-applied",
			applied, skipped, sum.TailRecords)
	}
	if got := countWorkers(t, db2); got != 350 {
		t.Fatalf("post-recovery count = %d, want 350", got)
	}
	res3 := mustExec(t, db2, "SELECT name FROM worker WHERE id = 327")
	if len(res3.Rows) != 1 || res3.Rows[0][0].S != "w327" {
		t.Fatalf("row 327 = %v", res3.Rows)
	}
	// The recovered database keeps working.
	insertWorkers(t, db2, 350, 25)
	if got := countWorkers(t, db2); got != 375 {
		t.Fatalf("post-recovery insert count = %d", got)
	}
}

// TestLogTruncatedBelowCheckpointStillRecovers is the acceptance
// scenario: the watermark-driven TruncateBelow reclaims log segments the
// checkpoint covers, the on-disk log genuinely shrinks, and a reopen
// over the truncated log still recovers every row — from the checkpoint
// plus the surviving tail.
func TestLogTruncatedBelowCheckpointStillRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(checkpointConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	for b := 0; b < 6; b++ {
		insertWorkers(t, db, b*100, 100)
	}
	before := db.LogStoreStats()
	if before[0].Segments < 3 {
		t.Fatalf("workload too small to rotate segments: %+v", before[0])
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := db.TruncateLogs()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	after := db.LogStoreStats()
	for i := range after {
		if after[i].Segments >= before[i].Segments {
			t.Fatalf("log %s did not shrink: %d -> %d segments",
				after[i].Name, before[i].Segments, after[i].Segments)
		}
		if after[i].Records >= before[i].Records {
			t.Fatalf("log %s records did not shrink: %d -> %d",
				after[i].Name, before[i].Records, after[i].Records)
		}
		if after[i].TruncatedLSN == 0 || after[i].Log.GCBytes == 0 {
			t.Fatalf("log %s GC stats empty: %+v", after[i].Name, after[i])
		}
	}
	// Crash over the truncated log.
	db = nil

	db2, err := Open(checkpointConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countWorkers(t, db2); got != 600 {
		t.Fatalf("count over truncated log = %d, want 600", got)
	}
	res := mustExec(t, db2, "SELECT name, age FROM worker WHERE id = 42")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "w42" || res.Rows[0][1].I != 20+42%45 {
		t.Fatalf("row 42 = %v", res.Rows)
	}
	// The surviving log alone cannot rebuild the database — proof the
	// recovery actually came from the checkpoints.
	if recs := db2.LogStoreStats()[0].Records; recs >= 600 {
		t.Fatalf("log still holds %d records; GC did not bite", recs)
	}
}

// corruptOne flips a byte in the middle of the first file matching the
// glob pattern.
func corruptOne(t *testing.T, pattern string) string {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("no files match %s: %v", pattern, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	return files[0]
}

// TestCorruptSliceCheckpointFallsBackToFullReplay damages one slice
// checkpoint file; recovery must detect it (CRC), ignore the whole
// checkpoint set's fast path, and rebuild from the full log.
func TestCorruptSliceCheckpointFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 200)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db = nil

	corruptOne(t, filepath.Join(dir, "pagestore-1", "slice-*.ckpt"))
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery must tolerate a corrupt checkpoint: %v", err)
	}
	defer db2.Close()
	sum := db2.RecoverySummary()
	if sum.CorruptCheckpoints == 0 {
		t.Fatalf("corruption not detected: %+v", sum)
	}
	if sum.TailRecords < 200 {
		t.Fatalf("tail = %d records, want full replay", sum.TailRecords)
	}
	if got := countWorkers(t, db2); got != 200 {
		t.Fatalf("count after corrupt checkpoint = %d, want 200", got)
	}
}

// TestCorruptCheckpointAfterGCFailsLoudly: once watermark GC has
// collected the log prefix, a corrupt slice checkpoint is unrecoverable
// from this node's disk — Open must refuse rather than silently serve
// a replica missing acknowledged rows.
func TestCorruptCheckpointAfterGCFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(checkpointConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	for b := 0; b < 6; b++ {
		insertWorkers(t, db, b*100, 100)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := db.TruncateLogs()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("GC reclaimed nothing; scenario needs a collected prefix")
	}
	db = nil

	corruptOne(t, filepath.Join(dir, "pagestore-1", "slice-*.ckpt"))
	before := runtime.NumGoroutine()
	if _, err := Open(checkpointConfig(dir)); err == nil {
		t.Fatal("Open must fail: corrupt checkpoint and GC'd log prefix")
	} else if !strings.Contains(err.Error(), "garbage-collected") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The failure comes after the SAL and the Log Stores started.
	waitGoroutines(t, before)
}

// TestCorruptMetaCheckpointFallsBackToFullReplay damages the frontend's
// meta checkpoint: recovery loses the fast path entirely but the full
// log still rebuilds everything.
func TestCorruptMetaCheckpointFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 150)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db = nil

	corruptOne(t, filepath.Join(dir, "frontend", "meta.ckpt"))
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery must tolerate a corrupt meta checkpoint: %v", err)
	}
	defer db2.Close()
	sum := db2.RecoverySummary()
	if sum.CheckpointLSN != 0 {
		t.Fatalf("corrupt meta still used: %+v", sum)
	}
	if got := countWorkers(t, db2); got != 150 {
		t.Fatalf("count = %d, want 150", got)
	}
}

// TestBackgroundCheckpointerShrinksLog runs the configured interval
// end to end: under a steady write load the ticker checkpoints and
// garbage-collects, so the on-disk log stops growing — the long-lived
// node scenario from the ROADMAP.
func TestBackgroundCheckpointerShrinksLog(t *testing.T) {
	dir := t.TempDir()
	cfg := checkpointConfig(dir)
	cfg.CheckpointInterval = 10 * time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	deadline := time.Now().Add(10 * time.Second)
	rows := 0
	gcSeen := false
	for time.Now().Before(deadline) {
		insertWorkers(t, db, rows, 50)
		rows += 50
		time.Sleep(15 * time.Millisecond)
		st := db.LogStoreStats()
		if st[0].Log.GCBytes > 0 && st[0].TruncatedLSN > 0 {
			gcSeen = true
			break
		}
	}
	if !gcSeen {
		t.Fatal("background checkpointer never garbage-collected the log")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncated log + final checkpoint still recover everything.
	db2, err := Open(checkpointConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countWorkers(t, db2); got != int64(rows) {
		t.Fatalf("count = %d, want %d", got, rows)
	}
}

// TestCloseTakesFinalCheckpoint: with the checkpointer enabled, a clean
// Close leaves a checkpoint covering everything, so the next Open
// replays no tail at all.
func TestCloseTakesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointInterval = time.Hour // only the close-time checkpoint fires
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 120)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	sum := db2.RecoverySummary()
	if sum.CheckpointLSN == 0 || sum.TailRecords != 0 {
		t.Fatalf("close checkpoint not used: %+v", sum)
	}
	applied, _ := sumApplied(db2)
	if applied != 0 {
		t.Fatalf("%d records re-applied after a clean close checkpoint", applied)
	}
	if got := countWorkers(t, db2); got != 120 {
		t.Fatalf("count = %d, want 120", got)
	}
	// Secondary DDL after a checkpointed recovery still works (the
	// allocators resumed from the meta checkpoint, not the log).
	if _, err := db2.Engine().CreateSecondaryIndex("worker", "worker_age", []int{1}); err != nil {
		t.Fatal(err)
	}
	insertWorkers(t, db2, 120, 30)
	if got := countWorkers(t, db2); got != 150 {
		t.Fatalf("post-DDL count = %d", got)
	}
}

// TestCheckpointUnderSustainedWriters is the snapshot-barrier regression
// test: with continuous writers keeping the pipeline's pending count
// nonzero, DB.Checkpoint must still complete (the old SAL.Flush drain
// waited for pending == 0, a moment that may never come, starving the
// background checkpointer into full-replay recoveries).
func TestCheckpointUnderSustainedWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 50)
	stop := make(chan struct{})
	writers := 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("INSERT INTO worker VALUES (%d, 30, DATE '2015-01-01', 100.00, 'w')",
					1000000+w*10000000+i)
				if _, err := db.Exec(q); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	// Give the writers a head start so the pipeline is saturated.
	time.Sleep(50 * time.Millisecond)
	type ckRes struct {
		res *CheckpointResult
		err error
	}
	done := make(chan ckRes, 1)
	go func() {
		res, err := db.Checkpoint()
		done <- ckRes{res, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.res.SlicesWritten == 0 {
			t.Fatalf("checkpoint wrote nothing under load: %+v", r.res)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Checkpoint starved under sustained writers")
	}
	// A second one keeps working too (the background checkpointer path).
	go func() {
		res, err := db.Checkpoint()
		done <- ckRes{res, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("second Checkpoint starved")
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoints were real: reopening recovers from one.
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.RecoverySummary().CheckpointLSN == 0 {
		t.Fatalf("recovery ignored the under-load checkpoints: %+v", db2.RecoverySummary())
	}
}
