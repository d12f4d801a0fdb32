package wal

import (
	"reflect"
	"testing"
)

func TestCatalogRoundtrip(t *testing.T) {
	for _, e := range []*CatalogEntry{
		{
			Kind: CatalogCreateTable, IndexID: 7, Root: 1 << 40, Table: "worker",
			Cols: []CatalogCol{
				{Name: "id", Kind: 1, NotNull: true},
				{Name: "name", Kind: 5, AvgLen: 12},
				{Name: "code", Kind: 5, FixedLen: 3},
			},
			Ords: []int{0},
		},
		{Kind: CatalogCreateIndex, IndexID: 9, Root: 12, Table: "worker", Index: "worker_age", Ords: []int{1, 2}},
		{Kind: CatalogCreateTable, IndexID: 1, Table: "t"},
	} {
		got, err := DecodeCatalog(e.EncodeCatalog(nil))
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		// Normalize nil vs empty slices for comparison.
		if len(got.Cols) == 0 {
			got.Cols = nil
		}
		if len(got.Ords) == 0 {
			got.Ords = nil
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestCatalogDecodeErrors(t *testing.T) {
	if _, err := DecodeCatalog(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := DecodeCatalog([]byte{99}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	e := &CatalogEntry{Kind: CatalogCreateTable, IndexID: 3, Table: "t",
		Cols: []CatalogCol{{Name: "c", Kind: 1}}}
	enc := e.EncodeCatalog(nil)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeCatalog(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
}

func TestCatalogRecordEncodeDecode(t *testing.T) {
	entry := &CatalogEntry{Kind: CatalogCreateTable, IndexID: 4, Table: "x", Ords: []int{0}}
	rec := Record{LSN: 42, Type: TypeCatalog, PageID: 0, Payload: entry.EncodeCatalog(nil)}
	buf := rec.Encode(nil)
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.LSN != 42 || got.Type != TypeCatalog {
		t.Fatalf("got %+v", got)
	}
	e2, err := DecodeCatalog(got.Payload)
	if err != nil || e2.Table != "x" || e2.IndexID != 4 {
		t.Fatalf("catalog payload: %+v err=%v", e2, err)
	}
}
