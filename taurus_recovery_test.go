package taurus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/logstore"
	"taurus/internal/types"
	"taurus/internal/wal"
)

// durableConfig is a small, fast deployment for recovery tests: tiny
// slices so data spreads across Page Stores, a tight group-commit
// window so each statement's flush returns quickly.
func durableConfig(dir string) Config {
	return Config{
		DataDir:          dir,
		PagesPerSlice:    4,
		LogFlushInterval: 200 * time.Microsecond,
	}
}

func mustExec(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func countWorkers(t *testing.T, db *DB) int64 {
	t.Helper()
	res := mustExec(t, db, "SELECT COUNT(*) FROM worker")
	return res.Rows[0][0].I
}

func insertWorkers(t *testing.T, db *DB, from, n int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("INSERT INTO worker VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %d, DATE '2012-01-15', 3100.00, 'w%d')", from+i, 20+(from+i)%45, from+i)
	}
	mustExec(t, db, sb.String())
}

// TestKillAndReopen is the acceptance scenario: open on a DataDir,
// create + insert + query, drop the process state without Close (a
// crash), and reopen the same directory — every acknowledged
// transaction must be visible again.
func TestKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 300)
	if got := countWorkers(t, db); got != 300 {
		t.Fatalf("pre-crash count = %d", got)
	}
	preLSN := db.DurableLSN()
	if preLSN == 0 {
		t.Fatal("nothing became durable")
	}
	// Crash: no Close, no flush — just drop every in-memory structure.
	db = nil

	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.RecoveryStats()
	if len(st.Tables) != 1 || st.Records == 0 {
		t.Fatalf("recovery stats = %+v", st)
	}
	if db2.DurableLSN() < preLSN {
		t.Fatalf("durable LSN went backwards: %d -> %d", preLSN, db2.DurableLSN())
	}
	if got := countWorkers(t, db2); got != 300 {
		t.Fatalf("post-recovery count = %d, want 300", got)
	}
	// Row content survived, not just cardinality.
	res := mustExec(t, db2, "SELECT name, age FROM worker WHERE id = 142")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "w142" || res.Rows[0][1].I != 20+142%45 {
		t.Fatalf("row 142 = %v", res.Rows)
	}
	// Aggregation over recovered pages (exercises scans + NDP paths).
	db2.SetNDPPageThreshold(1)
	res = mustExec(t, db2, "SELECT COUNT(*) FROM worker WHERE age < 30")
	want := int64(0)
	for i := 0; i < 300; i++ {
		if 20+i%45 < 30 {
			want++
		}
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("filtered count = %d, want %d", res.Rows[0][0].I, want)
	}
	// The database keeps working after recovery: new inserts, new LSNs.
	insertWorkers(t, db2, 300, 50)
	if got := countWorkers(t, db2); got != 350 {
		t.Fatalf("post-recovery insert count = %d", got)
	}

	// A second, clean restart sees both generations.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := countWorkers(t, db3); got != 350 {
		t.Fatalf("after clean restart count = %d", got)
	}
}

// lastSegments returns the newest segment file of every Log Store under
// dir.
func lastSegments(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, log := range []string{"log1", "log2", "log3"} {
		segs, err := filepath.Glob(filepath.Join(dir, log, "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments under %s/%s: %v", dir, log, err)
		}
		sort.Strings(segs)
		out = append(out, segs[len(segs)-1])
	}
	return out
}

// TestTornFinalRecordDiscarded cuts the final log entry in half on every
// Log Store replica — the on-disk state an interrupted append leaves
// behind — and verifies recovery drops exactly that batch and keeps
// everything before it.
func TestTornFinalRecordDiscarded(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 200)  // batch 1: acknowledged
	insertWorkers(t, db, 200, 60) // batch 2: the one we tear
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop into the last entry of every replica's log.
	for _, seg := range lastSegments(t, dir) {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-7); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery must tolerate a torn tail: %v", err)
	}
	defer db2.Close()
	if got := countWorkers(t, db2); got != 200 {
		t.Fatalf("count after torn tail = %d, want 200 (batch 2 discarded)", got)
	}
	// The surviving prefix is fully usable.
	insertWorkers(t, db2, 200, 10)
	if got := countWorkers(t, db2); got != 210 {
		t.Fatalf("insert after torn recovery = %d", got)
	}
}

// TestCorruptFinalRecordDiscarded flips a byte inside the final entry —
// same detection path, via CRC mismatch instead of a short read.
func TestCorruptFinalRecordDiscarded(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 150)
	insertWorkers(t, db, 150, 40)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range lastSegments(t, dir) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery must tolerate a corrupt tail record: %v", err)
	}
	defer db2.Close()
	if got := countWorkers(t, db2); got != 150 {
		t.Fatalf("count after CRC-corrupt tail = %d, want 150", got)
	}
}

// TestRecoveryAcrossSegments forces segment rotation so replay crosses
// sealed-segment boundaries.
func TestRecoveryAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.LogSegmentBytes = 4096
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	for b := 0; b < 10; b++ {
		insertWorkers(t, db, b*80, 80)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "log1", "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countWorkers(t, db2); got != 800 {
		t.Fatalf("count across segments = %d, want 800", got)
	}
}

// TestSecondaryIndexRecovery registers a secondary index through the
// typed engine API, crashes, and verifies the index is rebuilt and scans
// the same rows.
func TestSecondaryIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	if _, err := db.Engine().CreateSecondaryIndex("worker", "worker_age", []int{1}); err != nil {
		t.Fatal(err)
	}
	insertWorkers(t, db, 0, 120)
	tblBefore, err := db.Engine().Table("worker")
	if err != nil {
		t.Fatal(err)
	}
	rootBefore := tblBefore.Secondaries[0].Tree.Root()
	// Crash without Close.
	db = nil

	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.RecoveryStats(); st.Indexes != 1 {
		t.Fatalf("recovery stats = %+v, want 1 secondary index", st)
	}
	tbl, err := db2.Engine().Table("worker")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Secondaries) != 1 || tbl.Secondaries[0].Name != "worker_age" {
		t.Fatalf("secondaries = %+v", tbl.Secondaries)
	}
	idx := tbl.Secondaries[0]
	if idx.Tree.Root() != rootBefore {
		t.Fatalf("secondary root %d != pre-crash %d", idx.Tree.Root(), rootBefore)
	}
	rows := 0
	err = db2.Engine().Scan(engine.ScanOptions{Index: idx}, func(row types.Row, _ []core.AggState) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 120 {
		t.Fatalf("secondary index scan saw %d rows, want 120", rows)
	}
}

// TestEmptyDataDirIsFreshDatabase ensures DataDir on a new directory
// behaves exactly like an in-memory open.
func TestEmptyDataDirIsFreshDatabase(t *testing.T) {
	db, err := Open(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if st := db.RecoveryStats(); st.Records != 0 {
		t.Fatalf("fresh dir recovered %+v", st)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 10)
	if got := countWorkers(t, db); got != 10 {
		t.Fatalf("count = %d", got)
	}
}

// TestInMemoryModeUnchanged pins the default: no DataDir, no files, no
// recovery — and Close is safe to call.
func TestInMemoryModeUnchanged(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 5)
	if got := countWorkers(t, db); got != 5 {
		t.Fatalf("count = %d", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLaggingLogStoreCatchesUpOnOpen crashes with one Log Store a batch
// behind the other two (it missed the last append). Recovery must take
// the store with the highest durable LSN and bring the laggard up to
// it: a Log Store accepts only the next LSN prefix, so an un-repaired
// laggard would reject the first window written after recovery.
func TestLaggingLogStoreCatchesUpOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 40)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// log1 and log2 took one more (never acknowledged) window; log3
	// did not.
	var top uint64
	for _, log := range []string{"log1", "log2"} {
		ls, err := logstore.Open(log, filepath.Join(dir, log))
		if err != nil {
			t.Fatal(err)
		}
		top = ls.DurableLSN() + 1
		rec := wal.Record{Type: wal.TypeCompact, LSN: top, PageID: 1}
		if _, err := ls.Append(rec.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range db2.LogStoreStats() {
		if st.DurableLSN != top {
			t.Fatalf("%s durable LSN %d after recovery, want %d", st.Name, st.DurableLSN, top)
		}
	}
	insertWorkers(t, db2, 40, 10)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := countWorkers(t, db3); got != 50 {
		t.Fatalf("count after second recovery = %d, want 50", got)
	}
}

// TestMissingMetaOverCollectedLogFailsOpen deletes the meta checkpoint
// after log GC collected the log's prefix: without the meta, recovery
// must replay from LSN 1, so Open fails naming it instead of replaying
// (or dropping) a log that starts in the middle.
func TestMissingMetaOverCollectedLogFailsOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.LogSegmentBytes = 2048
	db, err := Open(cfg)
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
	if removed, err := db.TruncateLogs(); err != nil || removed == 0 {
		t.Fatalf("GC removed %d segments (err %v)", removed, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "frontend", "meta.ckpt")); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(cfg)
	if err == nil {
		db2.Close()
		t.Fatal("Open replayed a log whose prefix was collected")
	}
	if !strings.Contains(err.Error(), "LSN 1 missing") {
		t.Fatalf("Open error %q does not name LSN 1", err)
	}
}

// stageGhosts inserts n rows through the engine in a transaction that
// never commits: their records are staged in the write pipeline but
// nothing waits for them, so below the pinned flush threshold they are
// never sealed.
func stageGhosts(t *testing.T, db *DB, from, n int) {
	t.Helper()
	eng := db.Engine()
	tbl, err := eng.Table("worker")
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.Txm().Begin()
	for i := 0; i < n; i++ {
		id := int64(from + i)
		row := types.Row{
			types.NewInt(id), types.NewInt(30),
			types.DateFromYMD(2012, 1, 15),
			types.NewDecimal(310000),
			types.NewString(fmt.Sprintf("ghost%d", id)),
		}
		if err := eng.Insert(tbl, tx, row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRacingWritersKeepsLaterCommits checkpoints while a
// writer stages uncommitted records, crashes, commits on the recovered
// database, and crashes again: every acknowledged row must survive the
// second recovery. The staged records get LSNs the Log Stores never
// see, so a recovery that resumed the LSN allocator above the logs'
// durable LSN would leave a gap below the next commits.
func TestCheckpointRacingWritersKeepsLaterCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 20)
	// The writer stages its records after the checkpoint's barrier: the
	// checkpoint's watermark query to a Page Store runs it first.
	ps := db.stores[0]
	var once sync.Once
	db.tr.Register(db.psNames[0], cluster.HandlerFunc(func(req any) (any, error) {
		if _, ok := req.(*cluster.PageLSNReq); ok {
			once.Do(func() { stageGhosts(t, db, 1000, 5) })
		}
		return ps.Handle(req)
	}))
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.WritePathStats().PendingRecords; got == 0 {
		t.Fatal("expected the uncommitted records still staged at crash time")
	}
	db = nil // crash

	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	insertWorkers(t, db2, 20, 10)
	if got := countWorkers(t, db2); got != 30 {
		t.Fatalf("count before the second crash = %d, want 30", got)
	}
	db2 = nil // crash

	db3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := countWorkers(t, db3); got != 30 {
		t.Fatalf("count after the second recovery = %d, want 30 acknowledged rows", got)
	}
}
