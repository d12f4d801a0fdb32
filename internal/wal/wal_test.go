package wal

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		{LSN: 1, Type: TypeFormatPage, PageID: 10, IndexID: 3, Level: 2},
		{LSN: 2, Type: TypeInsertRec, PageID: 10, Off: 56, RecType: 0, TrxID: 99, Payload: []byte("hello")},
		{LSN: 3, Type: TypeInsertRec, PageID: 10, Off: 0, RecType: 1, TrxID: 0, Payload: nil},
		{LSN: 4, Type: TypeDeleteMark, PageID: 10, Off: 80, Flag: 1},
		{LSN: 5, Type: TypeSetTrxID, PageID: 10, Off: 80, TrxID: 123456},
		{LSN: 6, Type: TypeSetLinks, PageID: 10, Prev: 9, Next: 11},
		{LSN: 7, Type: TypeCompact, PageID: 10},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		buf := r.Encode(nil)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d", n, len(buf))
		}
		if r.Payload == nil {
			r.Payload = got.Payload // nil vs empty tolerated
			if len(got.Payload) != 0 {
				t.Errorf("payload should be empty")
			}
		}
		if !reflect.DeepEqual(r, got) {
			t.Errorf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestDecodeAll(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for i := range recs {
		buf = recs[i].Encode(buf)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d of %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].LSN != recs[i].LSN || got[i].Type != recs[i].Type {
			t.Errorf("record %d: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	r := Record{LSN: 2, Type: TypeInsertRec, PageID: 10, TrxID: 5, Payload: []byte("abcdef")}
	buf := r.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[8] = 200 // unknown type
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("unknown type should fail")
	}
	if _, err := DecodeAll(bad); err == nil {
		t.Fatal("DecodeAll should propagate errors")
	}
}

// Property: random records round-trip through the codec.
func TestRecordRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Record{
			LSN:    rng.Uint64(),
			Type:   Type(1 + rng.Intn(7)),
			PageID: rng.Uint64(),
		}
		switch r.Type {
		case TypeFormatPage:
			r.IndexID, r.Level = rng.Uint64(), uint16(rng.Intn(8))
			if rng.Intn(2) == 0 {
				r.Payload = make([]byte, 1+rng.Intn(40))
				rng.Read(r.Payload)
			}
		case TypeInsertRec:
			r.Off = rng.Uint32()
			r.RecType = uint8(rng.Intn(6))
			r.TrxID = rng.Uint64()
			r.Payload = make([]byte, rng.Intn(300))
			rng.Read(r.Payload)
		case TypeDeleteMark:
			r.Off, r.Flag = rng.Uint32(), uint8(rng.Intn(2))
		case TypeSetTrxID:
			r.Off, r.TrxID = rng.Uint32(), rng.Uint64()
		case TypeSetLinks:
			r.Prev, r.Next = rng.Uint64(), rng.Uint64()
		case TypeUpdateRec:
			r.Off = rng.Uint32()
			r.TrxID = rng.Uint64()
			r.Payload = make([]byte, rng.Intn(100))
			rng.Read(r.Payload)
		}
		buf := r.Encode(nil)
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if len(r.Payload) == 0 && len(got.Payload) == 0 {
			got.Payload, r.Payload = nil, nil
		}
		return reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
