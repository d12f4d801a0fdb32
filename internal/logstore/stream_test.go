package logstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/wal"
)

// streamSink is a test transport for the push hub: it collects the
// frames pushed to subscriber nodes and can be switched to fail (dead
// subscriber) or block (stalled subscriber) mid-test.
type streamSink struct {
	mu     sync.Mutex
	frames []*cluster.LogBatchReq
	fail   bool
	block  chan struct{}
}

func (t *streamSink) Call(node string, req any) (any, error) {
	t.mu.Lock()
	block := t.block
	t.mu.Unlock()
	if block != nil {
		<-block
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fail {
		return nil, fmt.Errorf("sink: %s unreachable", node)
	}
	if m, ok := req.(*cluster.LogBatchReq); ok {
		t.frames = append(t.frames, m)
	}
	return &cluster.Ack{}, nil
}

func (t *streamSink) setFail(fail bool) {
	t.mu.Lock()
	t.fail = fail
	t.mu.Unlock()
}

// deliveredLSNs decodes every collected frame and returns the set of
// record LSNs pushed so far, plus the total including duplicates.
func (t *streamSink) deliveredLSNs() (map[uint64]int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[uint64]int)
	total := 0
	for _, f := range t.frames {
		if len(f.Recs) == 0 {
			continue
		}
		recs, err := wal.DecodeAll(f.Recs)
		if err != nil {
			continue
		}
		for _, r := range recs {
			seen[r.LSN]++
			total++
		}
	}
	return seen, total
}

func waitCond(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

func compactRecs(from, to uint64) []byte {
	var recs []wal.Record
	for lsn := from; lsn <= to; lsn++ {
		recs = append(recs, wal.Record{LSN: lsn, Type: wal.TypeCompact, PageID: 1})
	}
	return encodeRecs(recs...)
}

// covered reports whether every LSN in [from, to] was delivered.
func covered(seen map[uint64]int, from, to uint64) bool {
	for lsn := from; lsn <= to; lsn++ {
		if seen[lsn] == 0 {
			return false
		}
	}
	return true
}

// TestStreamPushDeliversContiguously: a subscriber attaching behind the
// durable frontier catches up via gap-fill frames and then rides the
// live multicast — every record exactly once, no gaps.
func TestStreamPushDeliversContiguously(t *testing.T) {
	s := New("log1")
	sink := &streamSink{}
	s.SetPushTransport(sink)
	defer s.closeHub()
	if _, err := s.Append(compactRecs(1, 3)); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 0})
	if err != nil {
		t.Fatal(err)
	}
	sub := resp.(*cluster.LogSubscribeResp)
	if sub.TruncatedLSN != 0 || sub.DurableLSN != 3 {
		t.Fatalf("subscribe resp: %+v", sub)
	}
	waitCond(t, 5*time.Second, func() bool {
		seen, _ := sink.deliveredLSNs()
		return covered(seen, 1, 3)
	}, "attach-time catch-up never delivered LSNs 1..3")
	if _, err := s.Append(compactRecs(4, 5)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool {
		seen, _ := sink.deliveredLSNs()
		return covered(seen, 1, 5)
	}, "live records 4..5 never pushed")
	seen, total := sink.deliveredLSNs()
	if total != 5 {
		t.Fatalf("delivered %d records for 5 LSNs (duplicates): %v", total, seen)
	}
	if s.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", s.Subscribers())
	}
	waitCond(t, 5*time.Second, func() bool { return s.StreamLag() == 0 },
		"stream lag never drained")
}

// TestStreamSlowSubscriberDisconnect: a subscriber that stops consuming
// overflows its flow-control window and is disconnected rather than
// stalling the stream.
func TestStreamSlowSubscriberDisconnect(t *testing.T) {
	s := New("log1")
	sink := &streamSink{block: make(chan struct{})}
	s.SetPushTransport(sink)
	defer s.closeHub()
	if _, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 0, Window: 1}); err != nil {
		t.Fatal(err)
	}
	// The sender is stuck pushing the attach sync frame; each append
	// multicasts another frame into the 1-deep queue until it overflows.
	var lsn uint64
	deadline := time.Now().Add(5 * time.Second)
	for s.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never disconnected")
		}
		lsn++
		if _, err := s.Append(compactRecs(lsn, lsn)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(sink.block) // release the stuck sender goroutine
}

// TestStreamDroppedSubscriberHearsMasterDurable: a subscriber flow
// control dropped gets a last records-less frame carrying the master's
// newest durable LSN, so it learns it is behind although no frame
// follows. The relay lands after the drop, when the hub no longer pokes
// the subscriber.
func TestStreamDroppedSubscriberHearsMasterDurable(t *testing.T) {
	s, sink := frontierHub(t, 1)
	for lsn := uint64(3); s.Subscribers() > 0; lsn++ {
		if lsn > 100 {
			t.Fatal("stalled window-of-1 subscriber never dropped")
		}
		if _, err := s.Append(compactRecs(lsn, lsn)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.Handle(&cluster.FrontierReq{Tenant: 1, DurableLSN: 50,
		Slices: []cluster.SliceLSNEntry{{SliceID: 7, AppliedLSN: 1}}}); err != nil {
		t.Fatal(err)
	}
	sink.next(t, "attach sync", 0, 1)
	// The sender may still push the records frame it had queued; the
	// last frame has none.
	for {
		select {
		case f := <-sink.frames:
			if f.Count > 0 {
				continue
			}
			if f.MasterDurableLSN != 50 {
				t.Fatalf("last frame carries master durable %d, want 50", f.MasterDurableLSN)
			}
			return
		case <-time.After(5 * time.Second):
			t.Fatal("dropped subscriber got no last frame")
		}
	}
}

// TestStreamSubscribeRefusedAfterGC: log GC past the requested start
// refuses the subscription and reports the truncation watermark so the
// replica checkpoint-resyncs first.
func TestStreamSubscribeRefusedAfterGC(t *testing.T) {
	s := New("log1")
	sink := &streamSink{}
	s.SetPushTransport(sink)
	defer s.closeHub()
	if _, err := s.Append(compactRecs(1, 5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TruncateBelow(4); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub := resp.(*cluster.LogSubscribeResp); sub.TruncatedLSN != 3 {
		t.Fatalf("refusal watermark = %d, want 3", sub.TruncatedLSN)
	}
	if s.Subscribers() != 0 {
		t.Fatal("refused subscription still attached")
	}
	// Resubscribing at the watermark is accepted and streams the rest.
	if _, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 3}); err != nil {
		t.Fatal(err)
	}
	if s.Subscribers() != 1 {
		t.Fatal("post-resync subscription not attached")
	}
	waitCond(t, 5*time.Second, func() bool {
		seen, _ := sink.deliveredLSNs()
		return covered(seen, 4, 5)
	}, "surviving records 4..5 never pushed")
}

// TestStreamPinsGC: an attached (merely slow) subscriber pins the GC
// watermark, so records it still needs are never collected mid-stream.
func TestStreamPinsGC(t *testing.T) {
	s := New("log1")
	sink := &streamSink{block: make(chan struct{})}
	s.SetPushTransport(sink)
	defer s.closeHub()
	if _, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(compactRecs(1, 5)); err != nil {
		t.Fatal(err)
	}
	// The subscriber is stalled at LSN 1; a GC sweep aimed far past it
	// must clamp to the subscriber floor and collect nothing.
	if _, _, err := s.TruncateBelow(100); err != nil {
		t.Fatal(err)
	}
	if s.TruncatedLSN() != 0 || s.Len() != 5 {
		t.Fatalf("GC overran an attached subscriber: truncated=%d len=%d", s.TruncatedLSN(), s.Len())
	}
	close(sink.block)
	waitCond(t, 5*time.Second, func() bool {
		seen, _ := sink.deliveredLSNs()
		return covered(seen, 1, 5)
	}, "pinned records never delivered after the stall cleared")
}

// TestStreamPushErrorResubscribe: a dead subscriber is dropped on the
// first failed push; resubscribing from the last delivered LSN resumes
// the stream without a gap.
func TestStreamPushErrorResubscribe(t *testing.T) {
	s := New("log1")
	sink := &streamSink{}
	s.SetPushTransport(sink)
	defer s.closeHub()
	if _, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(compactRecs(1, 3)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool {
		seen, _ := sink.deliveredLSNs()
		return covered(seen, 1, 3)
	}, "initial records never pushed")
	sink.setFail(true)
	if _, err := s.Append(compactRecs(4, 4)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return s.Subscribers() == 0 },
		"dead subscriber never dropped")
	sink.setFail(false)
	// The replica resubscribes from its contiguous tail (LSN 3).
	if _, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(compactRecs(5, 5)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool {
		seen, _ := sink.deliveredLSNs()
		return covered(seen, 1, 5)
	}, "stream did not resume after resubscribe")
}

// handoffSink is a push transport that hands each frame to the test
// over an unbuffered channel: a sender stays inside its push until the
// test takes the frame, so the test decides when the sender runs and
// sees every frame in the order it was pushed.
type handoffSink struct {
	frames chan *cluster.LogBatchReq
	done   chan struct{}
}

func newHandoffSink(t *testing.T) *handoffSink {
	k := &handoffSink{frames: make(chan *cluster.LogBatchReq), done: make(chan struct{})}
	t.Cleanup(func() { close(k.done) }) // release a sender still mid-push
	return k
}

func (k *handoffSink) Call(node string, req any) (any, error) {
	if m, ok := req.(*cluster.LogBatchReq); ok {
		select {
		case k.frames <- m:
		case <-k.done:
			return nil, fmt.Errorf("sink: test over")
		}
	}
	return &cluster.Ack{}, nil
}

// next takes the next pushed frame and checks its record count and the
// applied LSN it carries for slice 7.
func (k *handoffSink) next(t *testing.T, what string, count uint32, applied uint64) *cluster.LogBatchReq {
	t.Helper()
	select {
	case f := <-k.frames:
		var got uint64
		for _, e := range f.Frontier {
			if e.SliceID == 7 {
				got = e.AppliedLSN
			}
		}
		if f.Count != count || got != applied {
			t.Fatalf("%s: frame has %d records, slice 7 applied=%d; want %d records, applied=%d",
				what, f.Count, got, count, applied)
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no frame pushed", what)
		return nil
	}
}

// frontierHub is a store with LSNs 1..2 durable and slice 7 relayed as
// applied to 1 — so slice 7 is a *known* slice — plus one subscriber
// whose sender has pushed the attach gap-fill and is parked inside its
// next push, the attach sync frame (nothing but the test taking that
// frame lets the sender reach its select again).
func frontierHub(t *testing.T, window uint32) (*Store, *handoffSink) {
	t.Helper()
	s := New("log1")
	sink := newHandoffSink(t)
	s.SetPushTransport(sink)
	t.Cleanup(s.closeHub)
	if _, err := s.Append(compactRecs(1, 2)); err != nil {
		t.Fatal(err)
	}
	relaySlice7(t, s, 1)
	if _, err := s.Handle(&cluster.LogSubscribeReq{Tenant: 1, Node: "r1", FromLSN: 0, Window: window}); err != nil {
		t.Fatal(err)
	}
	sink.next(t, "attach gap-fill", 2, 1)
	return s, sink
}

// relaySlice7 is a frontier-only relay: the durable watermark stays at
// 2 and the slice set stays {7}; only slice 7's applied LSN moves.
func relaySlice7(t *testing.T, s *Store, applied uint64) {
	t.Helper()
	if _, err := s.Handle(&cluster.FrontierReq{Tenant: 1, DurableLSN: 2,
		Slices: []cluster.SliceLSNEntry{{SliceID: 7, AppliedLSN: applied}}}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFrontierOnlyAdvancePushesOneFrame: raising a known slice's
// applied LSN — no new records, same durable watermark, same slice set —
// reaches the subscriber as exactly one records-less frame. Without it a
// commit with no successor stays invisible on the replicas until their
// watchdog resubscribes.
func TestStreamFrontierOnlyAdvancePushesOneFrame(t *testing.T) {
	s, sink := frontierHub(t, 0)
	sink.next(t, "attach sync", 0, 1)

	relaySlice7(t, s, 2)
	if f := sink.next(t, "frontier-only relay", 0, 2); f.MasterDurableLSN != 2 || len(f.Recs) != 0 {
		t.Fatalf("frontier-only frame: durable=%d, %d record bytes", f.MasterDurableLSN, len(f.Recs))
	}
	// Exactly one: the frames that follow are the next inputs' own, with
	// no second copy of the relay in between.
	if _, err := s.Append(compactRecs(3, 3)); err != nil {
		t.Fatal(err)
	}
	sink.next(t, "records after the relay", 1, 2)
	relaySlice7(t, s, 3)
	sink.next(t, "second relay", 0, 3)
}

// TestStreamFrontierRelaysCoalesce: relays that land while the sender is
// busy coalesce into one frame carrying the newest frontier.
func TestStreamFrontierRelaysCoalesce(t *testing.T) {
	s, sink := frontierHub(t, 0)
	// The sender is parked in a push; ten relays land meanwhile.
	for applied := uint64(2); applied <= 11; applied++ {
		relaySlice7(t, s, applied)
	}
	sink.next(t, "attach sync", 0, 1)
	sink.next(t, "coalesced relays", 0, 11)
	if _, err := s.Append(compactRecs(3, 3)); err != nil {
		t.Fatal(err)
	}
	sink.next(t, "records after the relays (a second frontier frame came first?)", 1, 11)
}

// TestStreamFrontierBurstSparesWindow: frontier-only traffic never
// enters the flow-control queue, so a burst of relays against a stalled
// subscriber with a window of one frame neither fills it nor
// disconnects the subscriber.
func TestStreamFrontierBurstSparesWindow(t *testing.T) {
	s, sink := frontierHub(t, 1)
	for applied := uint64(2); applied <= 101; applied++ {
		relaySlice7(t, s, applied)
	}
	if s.Subscribers() != 1 {
		t.Fatal("relay burst disconnected the window-of-1 subscriber")
	}
	sink.next(t, "attach sync", 0, 1)
	sink.next(t, "burst's newest frontier", 0, 101)
	if s.Subscribers() != 1 {
		t.Fatal("subscriber dropped after the burst drained")
	}
}
