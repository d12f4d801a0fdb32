package pstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleSlice(tenant, sliceID uint32, lsn uint64, pages int) *SliceCheckpoint {
	ck := &SliceCheckpoint{Tenant: tenant, SliceID: sliceID, AppliedLSN: lsn}
	for i := 0; i < pages; i++ {
		data := make([]byte, 128+i)
		for j := range data {
			data[j] = byte(i + j)
		}
		ck.Pages = append(ck.Pages, PageImage{PageID: uint64(100 + i), Data: data})
	}
	return ck
}

func TestSliceRoundTrip(t *testing.T) {
	s := testStore(t)
	want := sampleSlice(1, 7, 42, 5)
	if _, err := s.WriteSlice(want); err != nil {
		t.Fatal(err)
	}
	got, corrupt, err := s.LoadSlices()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 || len(got) != 1 {
		t.Fatalf("got %d valid, %d corrupt", len(got), len(corrupt))
	}
	ck := got[0]
	if ck.Tenant != 1 || ck.SliceID != 7 || ck.AppliedLSN != 42 || len(ck.Pages) != 5 {
		t.Fatalf("header = %+v", ck)
	}
	for i, pg := range ck.Pages {
		if pg.PageID != want.Pages[i].PageID || string(pg.Data) != string(want.Pages[i].Data) {
			t.Fatalf("page %d mismatch", i)
		}
	}
}

func TestWriteSliceReplacesPrevious(t *testing.T) {
	s := testStore(t)
	if _, err := s.WriteSlice(sampleSlice(1, 3, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSlice(sampleSlice(1, 3, 99, 4)); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.LoadSlices()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AppliedLSN != 99 || len(got[0].Pages) != 4 {
		t.Fatalf("replacement not visible: %+v", got)
	}
}

// TestCorruptSliceSkipped flips a byte in the middle of a checkpoint
// file; the whole file must be reported corrupt and skipped while an
// intact sibling still loads.
func TestCorruptSliceSkipped(t *testing.T) {
	s := testStore(t)
	if _, err := s.WriteSlice(sampleSlice(1, 1, 10, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSlice(sampleSlice(1, 2, 20, 3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), sliceName(1, 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, corrupt, err := s.LoadSlices()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 1 || len(got) != 1 || got[0].SliceID != 2 {
		t.Fatalf("valid=%d corrupt=%v", len(got), corrupt)
	}
}

// TestTruncatedSliceSkipped cuts the file short — the torn-write shape
// an interrupted write would leave if the rename were not atomic.
func TestTruncatedSliceSkipped(t *testing.T) {
	s := testStore(t)
	if _, err := s.WriteSlice(sampleSlice(1, 5, 10, 3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), sliceName(1, 5))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-9); err != nil {
		t.Fatal(err)
	}
	got, corrupt, err := s.LoadSlices()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(corrupt) != 1 {
		t.Fatalf("valid=%d corrupt=%v", len(got), corrupt)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	s := testStore(t)
	want := &Meta{
		AppliedLSN: 1000, MaxTrxID: 55, MaxPageID: 900, MaxIndexID: 3,
		Catalog: [][]byte{[]byte("table-entry"), []byte("index-entry")},
	}
	if err := s.WriteMeta(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadMeta()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("meta did not load")
	}
	if got.AppliedLSN != want.AppliedLSN ||
		got.MaxTrxID != want.MaxTrxID || got.MaxPageID != want.MaxPageID ||
		got.MaxIndexID != want.MaxIndexID {
		t.Fatalf("meta = %+v", got)
	}
	if len(got.Catalog) != 2 || string(got.Catalog[0]) != "table-entry" || string(got.Catalog[1]) != "index-entry" {
		t.Fatalf("catalog = %q", got.Catalog)
	}
}

func TestMissingMetaIsNil(t *testing.T) {
	s := testStore(t)
	m, err := s.LoadMeta()
	if err != nil || m != nil {
		t.Fatalf("missing meta: %v %v", m, err)
	}
}

func TestCorruptMetaIsNil(t *testing.T) {
	s := testStore(t)
	if err := s.WriteMeta(&Meta{AppliedLSN: 5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), metaName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := s.LoadMeta()
	if err != nil || m != nil {
		t.Fatalf("corrupt meta must read as absent: %v %v", m, err)
	}
}

// TestTMK2MetaRefused writes a meta checkpoint in the previous format:
// LoadMeta must fail rather than read it as absent (which would fall
// back to a full replay of a possibly collected log).
func TestTMK2MetaRefused(t *testing.T) {
	s := testStore(t)
	p := binary.LittleEndian.AppendUint32(nil, metaMagicTMK2)
	p = append(p, make([]byte, 5*8+1)...) // five marks, empty catalog
	if err := os.WriteFile(filepath.Join(s.Dir(), metaName), appendFrame(nil, p), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := s.LoadMeta(); err == nil {
		t.Fatalf("TMK2 meta loaded as %+v", m)
	}
}

// TestCrashLeftoverTmpCleaned ensures a temp file from an interrupted
// write is removed on Open and never parsed as a checkpoint.
func TestCrashLeftoverTmpCleaned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSlice(sampleSlice(1, 1, 7, 1)); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, sliceName(1, 2)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived reopen: %v", err)
	}
	got, corrupt, err := s2.LoadSlices()
	if err != nil || len(got) != 1 || len(corrupt) != 0 {
		t.Fatalf("after reopen: %d valid %v corrupt %v", len(got), corrupt, err)
	}
	if s2.LastCheckpoint().IsZero() {
		t.Fatal("checkpoint age not recovered from mtime")
	}
}
