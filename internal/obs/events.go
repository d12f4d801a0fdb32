package obs

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// EventRing is a flight recorder: a fixed-size ring of structural
// events (window seals, checkpoints, GC truncations, replica resyncs,
// sticky-error poisoning). It costs one short critical section per
// event and bounded memory forever, so it stays on in production; when
// something goes wrong the last N structural transitions are
// retrievable from /events or dumped to the log. All methods are safe for concurrent use and on a nil receiver.

// Event kinds recorded by the stack. Free-form kinds are allowed; these
// constants keep producers and dashboards in agreement.
const (
	EventWindowSeal = "window.seal"
	EventCheckpoint = "checkpoint"
	EventLogGC      = "log.gc"
	EventPoison     = "sal.poison"
	// Push-stream lifecycle: a replica subscribed to a Log Store's
	// stream, detached cleanly, or was disconnected (flow control or
	// push failure); EventCheckpointResync marks a replica rebasing on
	// a Page Store checkpoint after log GC overran its detached tail.
	EventStreamAttach     = "stream.attach"
	EventStreamDetach     = "stream.detach"
	EventStreamDisconnect = "stream.disconnect"
	EventCheckpointResync = "replica.ckpt_resync"

	// Parallel NDP scans: EventScanStart/EventScanFinish bracket one
	// partitioned scan's fan-out; EventScanRetry marks a per-slice
	// sub-batch re-sent to another Page Store replica after a failed
	// call.
	EventScanStart  = "scan.start"
	EventScanFinish = "scan.finish"
	EventScanRetry  = "scan.retry"

	// Health layer: EventPeerState marks a failure-detector transition
	// (alive/suspect/dead) for one peer; EventHealthCheck marks an
	// invariant check changing status on one node.
	EventPeerState   = "peer.state"
	EventHealthCheck = "health.check"
)

// Event is one recorded structural transition.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
}

// EventRing holds the most recent events in insertion order.
type EventRing struct {
	mu   sync.Mutex
	ring []Event
	next int
	full bool
	seq  uint64
}

// DefaultEventRingSize bounds per-node flight-recorder memory.
const DefaultEventRingSize = 1024

// NewEventRing builds a recorder. capacity <= 0 selects
// DefaultEventRingSize.
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventRingSize
	}
	return &EventRing{ring: make([]Event, 0, capacity)}
}

// Record appends one event. The sequence number is assigned under the
// ring lock, so Seq order is the order events entered the ring even
// with concurrent writers. Safe on nil.
func (r *EventRing) Record(kind, format string, args ...any) {
	if r == nil {
		return
	}
	detail := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev := Event{Seq: r.seq, Time: time.Now(), Kind: kind, Detail: detail}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
		return
	}
	r.ring[r.next] = ev
	r.next = (r.next + 1) % len(r.ring)
	r.full = true
}

// Events returns retained events oldest-first. Safe on nil.
func (r *EventRing) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if r.full {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}

// EventsSince returns retained events with Seq > since, oldest first.
// A cursor that has fallen out of the ring returns everything retained;
// the caller can detect the gap because the first event's Seq is then
// > since+1. Safe on nil.
func (r *EventRing) EventsSince(since uint64) []Event {
	if r == nil {
		return nil
	}
	all := r.Events()
	// Events are Seq-ascending; binary-search the cut instead of
	// filtering so a hot poller with a fresh cursor is O(log n).
	lo, hi := 0, len(all)
	for lo < hi {
		mid := (lo + hi) / 2
		if all[mid].Seq <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return all[lo:]
}

// Len returns how many events are retained. Safe on nil.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Handler serves GET /events as a JSON event list, oldest first. A
// ?since=<seq> cursor returns only events recorded after that sequence
// number, so pollers resume from their last-seen Seq instead of
// re-downloading the ring. Safe on nil (serves an empty list).
func (r *EventRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var events []Event
		if s := req.URL.Query().Get("since"); s != "" {
			since, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			events = r.EventsSince(since)
		} else {
			events = r.Events()
		}
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(events)
	})
}

// Dump writes every retained event to the logger, oldest first — the
// black-box readout after a failure. logger defaults to log.Default().
// Safe on nil.
func (r *EventRing) Dump(logger *log.Logger) {
	if r == nil {
		return
	}
	if logger == nil {
		logger = log.Default()
	}
	events := r.Events()
	logger.Printf("FLIGHT-RECORDER %d events", len(events))
	for _, ev := range events {
		logger.Printf("FLIGHT-RECORDER #%d %s %s %s",
			ev.Seq, ev.Time.Format(time.RFC3339Nano), ev.Kind, ev.Detail)
	}
}
