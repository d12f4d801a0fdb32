package taurus

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"taurus/internal/engine"
	"taurus/internal/types"
)

// indexFacts is what a data dictionary says about one index. Every way
// a catalog is rebuilt must agree with the live master on all of it.
type indexFacts struct {
	ID        uint64
	Name      string
	Table     string
	Cols      []types.Column
	KeyCols   []int
	TableOrds []int
	Primary   bool
	Root      uint64
	Height    int
}

// catalogOf lists db's indexes by ID.
func catalogOf(t *testing.T, db *DB) map[uint64]indexFacts {
	t.Helper()
	out := make(map[uint64]indexFacts)
	for _, name := range db.Engine().Tables() {
		tbl, err := db.Engine().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range append([]*engine.Index{tbl.Primary}, tbl.Secondaries...) {
			out[idx.ID] = indexFacts{
				ID: idx.ID, Name: idx.Name, Table: idx.Table, Cols: idx.Schema.Cols,
				KeyCols: idx.KeyCols, TableOrds: idx.TableOrds, Primary: idx.Primary,
				Root: idx.Tree.Root(), Height: idx.Tree.Height(),
			}
		}
	}
	return out
}

// buildCatalog creates table a with a secondary index on its wide name
// column and fills both trees past one level; with a DataDir it then
// checkpoints. Table b is created after that checkpoint. Returns the
// master's dictionary.
func buildCatalog(t *testing.T, db *DB) map[uint64]indexFacts {
	t.Helper()
	mustExec(t, db, `CREATE TABLE a (id BIGINT, v INT, name VARCHAR, PRIMARY KEY(id))`)
	if _, err := db.Engine().CreateSecondaryIndex("a", "a_name", []int{2}); err != nil {
		t.Fatal(err)
	}
	// The roots a's catalog records name: the trees are one page high.
	created := catalogOf(t, db)
	pad := strings.Repeat("n", 400)
	for b := 0; b < 4; b++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO a VALUES ")
		for i := b * 50; i < (b+1)*50; i++ {
			if i > b*50 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "(%d, %d, '%s-%04d')", i, i%7, pad, i)
		}
		mustExec(t, db, sb.String())
	}
	if db.meta != nil {
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE TABLE b (k INT, v INT, PRIMARY KEY(k, v))`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 2), (3, 4)`)
	want := catalogOf(t, db)
	if len(want) != 3 {
		t.Fatalf("master has %d indexes, want 3", len(want))
	}
	for id, f := range want {
		if f.Table == "a" && f.Height < 2 {
			t.Fatalf("%s has height %d; the scenario needs >= 2", f.Name, f.Height)
		}
		if c, ok := created[id]; ok && c.Root != f.Root {
			t.Fatalf("%s moved its root from %d to %d", f.Name, c.Root, f.Root)
		}
	}
	return want
}

// sameCatalog fails the test unless got equals want.
func sameCatalog(t *testing.T, how string, got, want map[uint64]indexFacts) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: catalog differs from the master's\n got %+v\nwant %+v", how, got, want)
	}
}

// waitCatalog polls a replica until its dictionary equals want: DDL and
// root raises reach a replica as its visible LSN passes them.
func waitCatalog(t *testing.T, how string, rep *DB, want map[uint64]indexFacts) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !reflect.DeepEqual(catalogOf(t, rep), want) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	sameCatalog(t, how, catalogOf(t, rep), want)
}

// TestOneCatalogFourWaysIn rebuilds one master's data dictionary every
// way the system knows — full-log recovery, checkpoint plus tail, a
// replica bootstrapped from the checkpoint meta, and a replica that
// only ever streamed the DDL — and requires each to match the live
// master index by index, roots and heights included. The master's roots
// are the ones its catalog records named at CREATE.
func TestOneCatalogFourWaysIn(t *testing.T) {
	dir := t.TempDir()
	master, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := buildCatalog(t, master)

	// (c) A replica bootstrapped from the meta: table a comes from the
	// checkpoint, table b from the stream.
	rep, err := OpenReplica(Config{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	waitCatalog(t, "replica bootstrapped from the meta", rep, want)
	rep.Close()
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}

	// (b) Checkpoint plus tail.
	db, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if db.RecoverySummary().CheckpointLSN == 0 {
		t.Fatal("recovery did not start from the checkpoint")
	}
	sameCatalog(t, "checkpoint plus tail", catalogOf(t, db), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// (a) Full-log recovery: the corrupt-meta fallback.
	corruptOne(t, filepath.Join(dir, "frontend", "meta.ckpt"))
	db, err = Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if db.RecoverySummary().CheckpointLSN != 0 {
		t.Fatal("corrupt meta still used")
	}
	sameCatalog(t, "full-log recovery", catalogOf(t, db), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// (d) A replica of an in-memory master, opened before any DDL: it
	// learns every table and index from the stream, and reads each root
	// raise at the root page the catalog named.
	mem, err := Open(Config{PagesPerSlice: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	rep, err = OpenReplica(Config{Master: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitCatalog(t, "replica fed by the stream", rep, buildCatalog(t, mem))
}

// waitGoroutines polls until at most want goroutines run, dumping the
// survivors if the deadline passes.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines outlived a failed Open (%d before it)\n%s",
				runtime.NumGoroutine()-want, want, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedOpenStopsWhatItStarted: a configuration error leaves no
// goroutine behind. The disk-backed case, a failure inside recovery
// after the SAL started, is TestCorruptCheckpointAfterGCFailsLoudly.
func TestFailedOpenStopsWhatItStarted(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Open(Config{CheckpointInterval: time.Second}); err == nil {
		t.Fatal("CheckpointInterval without DataDir must fail")
	}
	waitGoroutines(t, before)
}
