package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 10; i++ {
		r.Record(EventWindowSeal, "seal %d", i)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want capacity 4", len(evs))
	}
	// Oldest first, and only the newest 4 survive.
	for i, ev := range evs {
		if want := fmt.Sprintf("seal %d", i+6); ev.Detail != want {
			t.Errorf("event %d = %q, want %q", i, ev.Detail, want)
		}
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Errorf("seq not increasing: %d then %d", evs[i-1].Seq, ev.Seq)
		}
	}
}

// TestEventRingConcurrent hammers the ring from many goroutines (run
// with -race): sequence numbers must come out strictly increasing and
// the ring must hold exactly the newest capacity events.
func TestEventRingConcurrent(t *testing.T) {
	const writers, perWriter = 8, 200
	r := NewEventRing(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(EventWindowSeal, "w%d-%d", w, i)
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("len = %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap in retained window: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if got, want := evs[len(evs)-1].Seq, uint64(writers*perWriter); got != want {
		t.Errorf("last seq = %d, want %d (every Record got a unique seq)", got, want)
	}
}

func TestEventsHandler(t *testing.T) {
	r := NewEventRing(8)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	// Empty ring serves an empty JSON list, not null.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if body := rec.Body.String(); body != "[]\n" && body != "[]" {
		t.Errorf("empty ring body = %q, want []", body)
	}

	r.Record(EventCheckpoint, "ckpt at %d", 7)
	r.Record(EventLogGC, "gc below %d", 5)
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	var evs []Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("decoding /events: %v (%s)", err, rec.Body.String())
	}
	if len(evs) != 2 || evs[0].Kind != EventCheckpoint || evs[1].Kind != EventLogGC {
		t.Errorf("events = %+v", evs)
	}
	if evs[0].Detail != "ckpt at 7" {
		t.Errorf("detail = %q", evs[0].Detail)
	}
}

func TestEventRingNilSafe(t *testing.T) {
	var r *EventRing
	r.Record(EventPoison, "nope")
	if evs := r.Events(); evs != nil {
		t.Errorf("nil ring events = %v", evs)
	}
	if evs := r.EventsSince(0); evs != nil {
		t.Errorf("nil ring EventsSince = %v", evs)
	}
	r.Dump(nil)
}

// TestEventsSince checks the cursor read: only events with Seq > since
// come back, a cursor at the head returns nothing, and a cursor that
// fell out of a wrapped ring returns everything retained with the gap
// detectable from the first Seq.
func TestEventsSince(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 3; i++ {
		r.Record(EventWindowSeal, "seal %d", i)
	}
	// Mid-ring cursor: seq 1 already read, expect 2 and 3.
	evs := r.EventsSince(1)
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("EventsSince(1) = %+v", evs)
	}
	// Cursor at the head: nothing new.
	if evs := r.EventsSince(3); len(evs) != 0 {
		t.Fatalf("EventsSince(head) = %+v", evs)
	}
	// Cursor past the head (clock skew, stale bookmark): nothing new.
	if evs := r.EventsSince(99); len(evs) != 0 {
		t.Fatalf("EventsSince(past head) = %+v", evs)
	}

	// Wrap the ring: 10 events through capacity 4 retains seqs 7-10.
	for i := 3; i < 10; i++ {
		r.Record(EventWindowSeal, "seal %d", i)
	}
	evs = r.EventsSince(8)
	if len(evs) != 2 || evs[0].Seq != 9 || evs[1].Seq != 10 {
		t.Fatalf("EventsSince(8) after wrap = %+v", evs)
	}
	// Cursor that fell out of the ring: everything retained comes back,
	// and first.Seq > since+1 marks the gap.
	evs = r.EventsSince(2)
	if len(evs) != 4 || evs[0].Seq != 7 {
		t.Fatalf("EventsSince(fallen-out) = %+v", evs)
	}
	if evs[0].Seq <= 2+1 {
		t.Error("gap not detectable: first seq should exceed since+1")
	}
}

// TestEventsHandlerSinceParam checks GET /events?since=<seq> serves the
// cursor read and rejects a malformed cursor with 400.
func TestEventsHandlerSinceParam(t *testing.T) {
	r := NewEventRing(8)
	for i := 0; i < 5; i++ {
		r.Record(EventCheckpoint, "ckpt %d", i)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events?since=3", nil))
	var evs []Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("decoding: %v (%s)", err, rec.Body.String())
	}
	if len(evs) != 2 || evs[0].Seq != 4 || evs[1].Seq != 5 {
		t.Fatalf("?since=3 = %+v", evs)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events?since=banana", nil))
	if rec.Code != 400 {
		t.Errorf("bad cursor = %d, want 400", rec.Code)
	}
}
