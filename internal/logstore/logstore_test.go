package logstore

import (
	"strings"
	"sync"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/plog"
	"taurus/internal/wal"
)

func encodeRecs(recs ...wal.Record) []byte {
	var buf []byte
	for i := range recs {
		buf = recs[i].Encode(buf)
	}
	return buf
}

func TestAppendAndDurableLSN(t *testing.T) {
	s := New("log1")
	lsn, err := s.Append(encodeRecs(
		wal.Record{LSN: 1, Type: wal.TypeFormatPage, PageID: 1, IndexID: 1},
		wal.Record{LSN: 2, Type: wal.TypeCompact, PageID: 1},
	))
	if err != nil || lsn != 2 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
	if s.DurableLSN() != 2 || s.Len() != 2 {
		t.Fatalf("durable=%d len=%d", s.DurableLSN(), s.Len())
	}
	// Idempotent redelivery: same records ignored.
	lsn, err = s.Append(encodeRecs(wal.Record{LSN: 2, Type: wal.TypeCompact, PageID: 1}))
	if err != nil || lsn != 2 || s.Len() != 2 {
		t.Fatalf("redelivery changed state: lsn=%d len=%d", lsn, s.Len())
	}
	// Corrupt input rejected.
	if _, err := s.Append([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt log batch should fail")
	}
}

func TestReadFromServesReplicas(t *testing.T) {
	s := New("log1")
	s.Append(encodeRecs(
		wal.Record{LSN: 1, Type: wal.TypeFormatPage, PageID: 1, IndexID: 1},
		wal.Record{LSN: 2, Type: wal.TypeCompact, PageID: 1},
		wal.Record{LSN: 3, Type: wal.TypeCompact, PageID: 1},
	))
	recs := s.ReadFrom(1)
	if len(recs) != 2 || recs[0].LSN != 2 || recs[1].LSN != 3 {
		t.Fatalf("ReadFrom(1) = %v", recs)
	}
	if got := s.ReadFrom(3); len(got) != 0 {
		t.Fatalf("ReadFrom(3) = %v", got)
	}
}

func TestHandleDispatch(t *testing.T) {
	s := New("log1")
	resp, err := s.Handle(&cluster.LogAppendReq{
		Recs: encodeRecs(wal.Record{LSN: 1, Type: wal.TypeCompact, PageID: 9}),
	})
	if err != nil || resp.(*cluster.Ack).LSN != 1 {
		t.Fatalf("handle: %v %v", resp, err)
	}
	if _, err := s.Handle("bogus"); err == nil {
		t.Fatal("unknown request should fail")
	}
}

// TestOutOfOrderLSNBatches pins the prefix rule: a batch that skips an
// LSN is rejected whole and leaves the durable LSN where it was, while
// redeliveries and batches straddling the durable LSN are accepted.
func TestOutOfOrderLSNBatches(t *testing.T) {
	compact := func(lsns ...uint64) []byte {
		var recs []wal.Record
		for _, lsn := range lsns {
			recs = append(recs, wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: 1})
		}
		return encodeRecs(recs...)
	}
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var s *Store
			if durable {
				var err error
				if s, err = Open("log1", dir, WithNoSync()); err != nil {
					t.Fatal(err)
				}
			} else {
				s = New("log1")
			}
			if lsn, err := s.Append(compact(1, 2)); err != nil || lsn != 2 {
				t.Fatalf("first batch: lsn=%d err=%v", lsn, err)
			}
			// A batch that does not start at durable + 1, and one with a
			// gap inside: both rejected, nothing stored.
			for _, bad := range [][]byte{compact(4, 5), compact(3, 5)} {
				_, err := s.Append(bad)
				if err == nil || !strings.Contains(err.Error(), "LSN 3") && !strings.Contains(err.Error(), "LSN 4") {
					t.Fatalf("gapped batch: err=%v, want a rejection naming the missing LSN", err)
				}
				if s.DurableLSN() != 2 || s.Len() != 2 {
					t.Fatalf("rejected batch moved the log: durable=%d len=%d", s.DurableLSN(), s.Len())
				}
			}
			// Re-delivering the same records is a no-op.
			if lsn, err := s.Append(compact(1, 2)); err != nil || lsn != 2 || s.Len() != 2 {
				t.Fatalf("redelivered batch: lsn=%d err=%v len=%d", lsn, err, s.Len())
			}
			// A batch straddling the durable LSN keeps only the fresh suffix.
			if lsn, err := s.Append(compact(2, 3)); err != nil || lsn != 3 {
				t.Fatalf("straddling batch: lsn=%d err=%v", lsn, err)
			}
			if s.Len() != 3 || s.DurableLSN() != 3 {
				t.Fatalf("len=%d durable=%d", s.Len(), s.DurableLSN())
			}
			if !durable {
				return
			}
			// Nothing of the rejected batches reached the disk.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open("log1", dir, WithNoSync())
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.DurableLSN() != 3 || re.Len() != 3 {
				t.Fatalf("reopened: durable=%d len=%d", re.DurableLSN(), re.Len())
			}
		})
	}
}

func TestConcurrentIdempotentRedelivery(t *testing.T) {
	s, err := Open("log1", t.TempDir(), WithFlushInterval(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 10 batches of 10 records; every batch re-delivered by 4 goroutines
	// concurrently, as a retrying SAL would.
	const batches, per, senders = 10, 10, 4
	enc := make([][]byte, batches)
	for b := 0; b < batches; b++ {
		var recs []wal.Record
		for i := 0; i < per; i++ {
			recs = append(recs, wal.Record{
				LSN: uint64(b*per + i + 1), Type: wal.TypeCompact, PageID: uint64(b + 1),
			})
		}
		enc[b] = encodeRecs(recs...)
	}
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := s.Append(enc[b]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != batches*per || s.DurableLSN() != batches*per {
		t.Fatalf("len=%d durable=%d, want %d records exactly once", s.Len(), s.DurableLSN(), batches*per)
	}
}

func TestDiskModeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open("log1", dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Durable() != true {
		t.Fatal("disk mode not durable?")
	}
	if _, err := s.Append(encodeRecs(
		wal.Record{LSN: 1, Type: wal.TypeFormatPage, PageID: 1, IndexID: 1},
		wal.Record{LSN: 2, Type: wal.TypeInsertRec, PageID: 1, TrxID: 9, Payload: []byte("row")},
	)); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash right after the acknowledged append.
	s2, err := Open("log1", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 || s2.DurableLSN() != 2 {
		t.Fatalf("after reopen: len=%d durable=%d", s2.Len(), s2.DurableLSN())
	}
	recs := s2.ReadFrom(0)
	if recs[1].TrxID != 9 || string(recs[1].Payload) != "row" {
		t.Fatalf("payload lost: %+v", recs[1])
	}
	if memory := New("mem"); memory.Durable() {
		t.Fatal("memory mode claims durability")
	}
}

func TestTruncateBelowDropsPrefix(t *testing.T) {
	s, err := Open("log1", t.TempDir(), WithNoSync(), WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for lsn := uint64(1); lsn <= 40; lsn++ {
		if _, err := s.Append(encodeRecs(wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: lsn})); err != nil {
			t.Fatal(err)
		}
	}
	removed, bytes, err := s.TruncateBelow(30)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || bytes == 0 {
		t.Fatalf("GC reclaimed removed=%d bytes=%d", removed, bytes)
	}
	if s.TruncatedLSN() != 29 {
		t.Fatalf("truncatedLSN = %d", s.TruncatedLSN())
	}
	recs := s.ReadFrom(0)
	if len(recs) != 11 || recs[0].LSN != 30 {
		t.Fatalf("after GC: %d records, first LSN %d", len(recs), recs[0].LSN)
	}
	// DurableLSN is unaffected by GC.
	if s.DurableLSN() != 40 {
		t.Fatalf("durable = %d", s.DurableLSN())
	}
	if s.LogStats().GCBytes == 0 {
		t.Fatal("no segments reclaimed")
	}
}

// TestCatchUpFromPeer is the replica-repair scenario: a replica that
// missed batches (down during writes) streams the missing tail out of a
// peer's persistent log and converges to the same durable state.
func TestCatchUpFromPeer(t *testing.T) {
	peer, err := Open("log1", t.TempDir(), WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	lag, err := Open("log2", t.TempDir(), WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer lag.Close()
	lsn := uint64(0)
	appendBatch := func(s *Store, n int) {
		t.Helper()
		var recs []wal.Record
		for i := 0; i < n; i++ {
			lsn++
			recs = append(recs, wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: lsn})
		}
		if _, err := s.Append(encodeRecs(recs...)); err != nil {
			t.Fatal(err)
		}
	}
	// Both replicas see the first batch; the laggard misses the rest.
	var first []wal.Record
	for i := 0; i < 10; i++ {
		lsn++
		first = append(first, wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: lsn})
	}
	enc := encodeRecs(first...)
	if _, err := peer.Append(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := lag.Append(enc); err != nil {
		t.Fatal(err)
	}
	appendBatch(peer, 15)
	appendBatch(peer, 15)
	if lag.DurableLSN() >= peer.DurableLSN() {
		t.Fatal("laggard is not lagging")
	}
	n, err := lag.CatchUp(peer)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("caught up %d records, want 30", n)
	}
	if lag.DurableLSN() != peer.DurableLSN() || lag.Len() != peer.Len() {
		t.Fatalf("not converged: lsn %d/%d len %d/%d",
			lag.DurableLSN(), peer.DurableLSN(), lag.Len(), peer.Len())
	}
	// CatchUp is idempotent.
	if n, err := lag.CatchUp(peer); err != nil || n != 0 {
		t.Fatalf("second catch-up appended %d (err %v)", n, err)
	}
	// The repaired records are durable: a restart still has them.
	dir := lag.disk.Dir()
	if err := lag.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open("log2", dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.DurableLSN() != peer.DurableLSN() {
		t.Fatalf("restart lost repaired records: %d vs %d", re.DurableLSN(), peer.DurableLSN())
	}
	// A memory-mode peer cannot serve catch-up.
	if _, err := re.CatchUp(New("mem")); err == nil {
		t.Fatal("catch-up from a memory peer must fail")
	}
}

// TestGCMarkSurvivesReopen pins the persisted GC watermark: segment GC
// deletes whole segments, so collected records can leave gaps between
// surviving mixed segments — a reopened store must accept those gaps
// (they lie at or below the watermark) rather than fail as a torn log,
// and the truncation watermark itself must survive the restart.
func TestGCMarkSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open("log1", dir, WithNoSync(), WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 40; lsn++ {
		if _, err := s.Append(encodeRecs(wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: lsn})); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.TruncateBelow(30); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open("log1", dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.TruncatedLSN() != 29 {
		t.Fatalf("truncation watermark lost on reopen: %d", s2.TruncatedLSN())
	}
	if s2.DurableLSN() != 40 {
		t.Fatalf("durable = %d", s2.DurableLSN())
	}
}

// TestFrontHoleDetectedOnReopen writes logs with a gap straight to
// disk (Append refuses to make one) and checks that Open fails naming
// the missing LSN: a gap between the GC watermark and the first
// surviving record, and a gap in the middle of the log.
func TestFrontHoleDetectedOnReopen(t *testing.T) {
	compact := func(from, to uint64) []byte {
		var recs []wal.Record
		for lsn := from; lsn <= to; lsn++ {
			recs = append(recs, wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: 1})
		}
		return encodeRecs(recs...)
	}
	// writeRaw appends batches to the segmented log under the store.
	writeRaw := func(dir string, batches ...[]byte) {
		t.Helper()
		l, err := plog.Open(plog.Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			recs, err := wal.DecodeAll(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(recs[len(recs)-1].LSN, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	openFails := func(dir, missing string) {
		t.Helper()
		s, err := Open("lag", dir, WithNoSync())
		if err == nil {
			s.Close()
			t.Fatalf("Open accepted a log missing LSN %s", missing)
		}
		if !strings.Contains(err.Error(), "LSN "+missing+" missing") {
			t.Fatalf("Open error %q does not name LSN %s", err, missing)
		}
	}

	// Front hole: GC collected 1..5 (watermark 5), and the surviving
	// records start at 11.
	front := t.TempDir()
	s, err := Open("lag", front, WithSegmentBytes(64), WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(compact(1, 5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TruncateBelow(6); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeRaw(front, compact(11, 15))
	openFails(front, "6")

	// Middle gap: 1..5, then 8..9.
	mid := t.TempDir()
	writeRaw(mid, compact(1, 5), compact(8, 9))
	openFails(mid, "6")
}
