package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"taurus/internal/types"
)

// TestRecoverFromTwiceEqualsOnce merges a checkpoint base plus the whole
// log above LSN 0 (so base and tail overlap) into a fresh engine, then
// merges the same input again: the second merge must succeed, register
// nothing, and leave the dictionary and allocators exactly
// as the first left them — which must match the engine that wrote the
// log.
func TestRecoverFromTwiceEqualsOnce(t *testing.T) {
	src := newTestCluster(t, 4096)
	tbl, err := src.eng.CreateTable("worker", workerSchema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.eng.CreateSecondaryIndex("worker", "worker_name", []int{4}); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("n", 300)
	tx := src.eng.Txm().Begin()
	for i := 0; i < 300; i++ {
		row := types.Row{
			types.NewInt(int64(i)), types.NewInt(30), types.DateFromYMD(2010, 1, 1),
			types.NewDecimal(100000), types.NewString(fmt.Sprintf("%s-%04d", pad, i)),
		}
		if err := src.eng.Insert(tbl, tx, row); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := src.eng.SAL().Flush(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []*Index{tbl.Primary, tbl.Secondaries[0]} {
		if h := idx.Tree.Height(); h < 2 {
			t.Fatalf("%s height %d, want >= 2", idx.Name, h)
		}
	}
	base := src.eng.CheckpointBase()
	// DDL after the checkpoint reaches the merge only through the tail.
	if _, err := src.eng.CreateTable("late", workerSchema, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	tail := src.log.ReadFrom(0)

	dst := newTestCluster(t, 64)
	once, err := dst.eng.RecoverFrom(base, tail)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once.Tables, []string{"worker", "late"}) || once.Indexes != 1 {
		t.Fatalf("first merge registered tables %v and %d secondaries, want [worker late] and 1", once.Tables, once.Indexes)
	}
	want, got := src.eng.CheckpointBase(), dst.eng.CheckpointBase()
	if !reflect.DeepEqual(got.Catalog, want.Catalog) {
		t.Fatalf("merged dictionary (roots included) differs from the writer's:\n got %q\nwant %q", got.Catalog, want.Catalog)
	}
	if got.MaxPageID != want.MaxPageID || got.MaxIndexID != want.MaxIndexID {
		t.Fatalf("allocators: pages %d indexes %d, want %d and %d",
			got.MaxPageID, got.MaxIndexID, want.MaxPageID, want.MaxIndexID)
	}

	again, err := dst.eng.RecoverFrom(base, tail)
	if err != nil {
		t.Fatalf("second merge: %v", err)
	}
	if len(again.Tables) != 0 || again.Indexes != 0 {
		t.Fatalf("second merge changed the dictionary: %+v", again)
	}
	if after := dst.eng.CheckpointBase(); !reflect.DeepEqual(after, got) {
		t.Fatalf("second merge changed the engine:\n once %+v\ntwice %+v", got, after)
	}
}
