package taurus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

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
		// The torn/corrupt-tail tests cut the LAST on-disk log entry
		// and reason about exactly which statement it carried; a pinned
		// window size keeps each small statement in one entry (the
		// adaptive threshold would split them unpredictably).
		WriteFlushThreshold: 256,
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

// catRec builds a TypeCatalog record (barrier or otherwise) for the
// torn-lane filter tests.
func barrierRec(lsn, voidFrom uint64) wal.Record {
	return wal.Record{
		Type: wal.TypeCatalog, LSN: lsn,
		Payload: (&wal.CatalogEntry{Kind: wal.CatalogBarrier, IndexID: voidFrom}).EncodeCatalog(nil),
	}
}

func dataRec(lsn uint64) wal.Record {
	return wal.Record{Type: wal.TypeCompact, LSN: lsn, PageID: 1}
}

func lsnsOf(recs []wal.Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

// TestVoidTornLanes pins the non-prefix-log recovery filter: per-slice
// lanes can leave a later lane's window durable while an earlier lane's
// window was lost, and replay must drop that unacknowledged tail — but
// keep acknowledged records logged above a barrier-explained gap after
// a previous recovery.
func TestVoidTornLanes(t *testing.T) {
	eq := func(got []wal.Record, want ...uint64) {
		t.Helper()
		gotLSNs := lsnsOf(got)
		if len(gotLSNs) != len(want) {
			t.Fatalf("kept %v, want %v", gotLSNs, want)
		}
		for i := range want {
			if gotLSNs[i] != want[i] {
				t.Fatalf("kept %v, want %v", gotLSNs, want)
			}
		}
	}
	// Contiguous log: nothing voided.
	kept, from, voided := voidTornLanes([]wal.Record{dataRec(1), dataRec(2), dataRec(3)}, 0, true)
	if from != 0 || voided != 0 {
		t.Fatalf("contiguous log voided: from=%d n=%d", from, voided)
	}
	eq(kept, 1, 2, 3)
	// Freshly-torn tail: LSN 10 lost (other lane), 11 durable — drop 11.
	kept, from, voided = voidTornLanes([]wal.Record{dataRec(8), dataRec(9), dataRec(11)}, 7, true)
	if from != 10 || voided != 1 {
		t.Fatalf("torn tail: from=%d n=%d", from, voided)
	}
	eq(kept, 8, 9)
	// Next boot: a barrier at 12 explains [10,12); zombie 11 dropped,
	// new records 12.. (the barrier itself) and 13.. kept.
	kept, from, voided = voidTornLanes([]wal.Record{
		dataRec(8), dataRec(9), dataRec(11), barrierRec(12, 10), dataRec(13),
	}, 7, true)
	if from != 0 || voided != 1 {
		t.Fatalf("barrier epoch: from=%d n=%d", from, voided)
	}
	eq(kept, 8, 9, 12, 13)
	// A second tear above the explained epoch: 14 lost, 15 durable.
	kept, from, voided = voidTornLanes([]wal.Record{
		dataRec(9), dataRec(11), barrierRec(12, 10), dataRec(13), dataRec(15),
	}, 0, false)
	if from != 14 || voided != 2 {
		t.Fatalf("second tear: from=%d n=%d", from, voided)
	}
	eq(kept, 9, 12, 13)
	// Anchored with no checkpoint (fresh DB, GC impossible): a missing
	// LEADING window is a torn tail too.
	kept, from, voided = voidTornLanes([]wal.Record{dataRec(3), dataRec(4)}, 0, true)
	if from != 1 || voided != 2 {
		t.Fatalf("anchored leading gap: from=%d n=%d", from, voided)
	}
	eq(kept)
	// Unanchored (corrupt-meta fallback over a GC'd log): the same
	// leading gap is a collected prefix, not loss.
	kept, from, voided = voidTornLanes([]wal.Record{dataRec(3), dataRec(4)}, 0, false)
	if from != 0 || voided != 0 {
		t.Fatalf("unanchored leading prefix voided: from=%d n=%d", from, voided)
	}
	eq(kept, 3, 4)
}

// TestTornMultiLaneTailRecovery drives the whole loop at the DB level:
// a crash leaves the logs with a hole (an earlier lane's window lost)
// below durable later-lane records; reopen must void the unacknowledged
// tail, log a barrier, and a THIRD open must keep post-recovery commits
// while still dropping the zombies.
func TestTornMultiLaneTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
		salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
	insertWorkers(t, db, 0, 50)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge the torn multi-lane state on every replica: append two
	// more windows whose LSNs skip a "lost" window in between. The
	// records above the hole were never acknowledged.
	for _, log := range []string{"log1", "log2", "log3"} {
		ls, err := logstore.Open(log, filepath.Join(dir, log))
		if err != nil {
			t.Fatal(err)
		}
		top := ls.DurableLSN()
		ghost := wal.Record{Type: wal.TypeCompact, LSN: top + 3, PageID: 1}
		if _, err := ls.Append(ghost.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if ls.PendingHoles() != 2 {
			t.Fatalf("%s pending holes = %d, want 2", log, ls.PendingHoles())
		}
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery must tolerate a torn multi-lane tail: %v", err)
	}
	if got := countWorkers(t, db2); got != 50 {
		t.Fatalf("count after torn-lane tail = %d, want 50 (ghost tail voided)", got)
	}
	if v := db2.RecoverySummary().VoidedRecords; v != 1 {
		t.Fatalf("voided records = %d, want 1", v)
	}
	// Post-recovery commits land above the barrier...
	insertWorkers(t, db2, 50, 10)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and survive the NEXT recovery even though the zombie gap is
	// still in the log below them.
	db3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := countWorkers(t, db3); got != 60 {
		t.Fatalf("count after second recovery = %d, want 60", got)
	}
}

// TestSiblingZombieAboveBestReplica covers the resume rule when one
// NON-best Log Store holds an unacknowledged lane window ABOVE the best
// replica's durable LSN: the allocator must resume above every
// replica's content (a fresh record reusing the zombie's LSN would be
// silently "deduplicated" by that store while still being acked), and
// the recovery barrier must void the zombie range so a later boot that
// picks the zombie-bearing store as best does not replay it.
func TestSiblingZombieAboveBestReplica(t *testing.T) {
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
	// Forge the skewed crash state: log1 and log2 each accepted one
	// more contiguous lane window ([top+1, top+2]); log3 instead
	// accepted a LATER lane's window ([top+4]) and lost the others —
	// its durable LSN tops everyone while holding fewer records.
	var top uint64
	for i, log := range []string{"log1", "log2", "log3"} {
		ls, err := logstore.Open(log, filepath.Join(dir, log))
		if err != nil {
			t.Fatal(err)
		}
		top = ls.DurableLSN()
		var batch []byte
		if i < 2 {
			batch = (&wal.Record{Type: wal.TypeCompact, LSN: top + 1, PageID: 1}).Encode(nil)
			batch = (&wal.Record{Type: wal.TypeCompact, LSN: top + 2, PageID: 1}).Encode(batch)
		} else {
			batch = (&wal.Record{Type: wal.TypeCompact, LSN: top + 4, PageID: 1}).Encode(nil)
		}
		if _, err := ls.Append(batch); err != nil {
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
	if got := countWorkers(t, db2); got != 40 {
		t.Fatalf("count after skewed crash = %d, want 40", got)
	}
	// New commits must allocate above the zombie (top+4), not collide
	// with it on log3.
	insertWorkers(t, db2, 40, 10)
	if lsn := db2.DurableLSN(); lsn <= top+4 {
		t.Fatalf("durable LSN %d did not resume above the sibling zombie %d", lsn, top+4)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	// The next boot may pick any replica as best; the barrier must keep
	// the new rows and drop the zombie either way.
	db3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := countWorkers(t, db3); got != 50 {
		t.Fatalf("count after second recovery = %d, want 50", got)
	}
}
