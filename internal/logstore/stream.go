// Push-based log subscription streams: how read replicas follow the
// log. The store runs one sequential log reader per stream that encodes
// each new record batch once and multicasts the framed batch
// (MsgLogBatch) to every subscriber over the regular cluster transport.
// Frames piggyback the master SAL's durable watermark and per-slice
// applied frontier (relayed via MsgFrontier), so subscribers advance
// their visible LSN without asking any storage node.
//
// Flow control is a bounded per-subscriber queue: the multicast never
// blocks on a slow consumer — a subscriber whose queue overflows is
// disconnected (it resubscribes and catches up from its last
// contiguous LSN, or from a checkpoint if log GC passed it by). Its
// last frame carries the master's durable LSN, so the subscriber sees
// it is behind without waiting out a long silence. Active
// subscriptions pin the store's GC watermark so a merely-slow
// subscriber is never overrun mid-stream.
package logstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"taurus/internal/cluster"
	"taurus/internal/obs"
)

// maxStreamBatch bounds one pushed frame's record count; a large
// catch-up is chunked into several frames.
const maxStreamBatch = 4096

// defaultStreamWindow is the per-subscriber queue depth when the
// subscription does not name one: how many pushed frames a consumer may
// fall behind before the hub disconnects it.
const defaultStreamWindow = 32

// subscriber is one attached stream consumer.
type subscriber struct {
	node   string
	tenant uint32
	// next is the next LSN this subscriber needs. Owned by its sender
	// goroutine; read by the hub (GC pinning, lag gauge).
	next  atomic.Uint64
	queue chan *cluster.LogBatchReq
	// poke asks the sender for a records-less frame carrying the newest
	// relayed frontier. One slot, level-triggered: relays that land
	// while the sender is busy cost one frame, and never a queue slot.
	poke chan struct{}
	// gen is hub.frontierGen as of the newest frame built for this
	// subscriber (queued or pushed). Guarded by hub.mu.
	gen uint64
	// dropped marks a subscriber flow control disconnected, so its
	// sender pushes a last frame before it stops. Guarded by hub.mu.
	dropped bool
	stop    chan struct{}
	done    chan struct{}
}

// hub is the store's stream multicaster: one goroutine watches the
// durable LSN and frontier relays, encodes new records
// once, and fans the frame out to every subscriber's queue.
type hub struct {
	s  *Store
	tr cluster.Transport

	mu   sync.Mutex
	subs map[string]*subscriber
	// Relayed master frontier (MsgFrontier), piggybacked on frames.
	masterDurable uint64
	frontier      map[uint32]uint64
	// frontierGen counts the relays that moved masterDurable or frontier;
	// a subscriber whose gen differs has not been sent the newest one.
	frontierGen uint64
	// cursor is the highest LSN the multicast has framed so far.
	cursor uint64
	// pendingTC is the most recent sampled append's trace context; the
	// next multicast round's pushes become children of that append
	// (best effort — coalesced rounds keep the newest).
	pendingTC obs.TraceContext

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// SetPushTransport arms the subscription hub: the transport is how the
// store reaches subscriber nodes (the same fabric replicas use to reach
// the store). Must be called before the first MsgLogSubscribe; calling
// it on a store that already has a hub is a no-op.
func (s *Store) SetPushTransport(tr cluster.Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hub != nil {
		return
	}
	h := &hub{
		s: s, tr: tr,
		subs:     make(map[string]*subscriber),
		frontier: make(map[uint32]uint64),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.hub = h
	go h.run()
}

// kickHub nudges the multicast loop (new durable records, frontier
// advance, or a fresh subscriber needing a sync frame).
func (s *Store) kickHub() {
	s.mu.Lock()
	h := s.hub
	s.mu.Unlock()
	if h == nil {
		return
	}
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

// stashStreamTrace remembers a sampled append's context so the pushes
// it triggers join its trace tree.
func (s *Store) stashStreamTrace(tc obs.TraceContext) {
	if !tc.Valid() {
		return
	}
	s.mu.Lock()
	h := s.hub
	s.mu.Unlock()
	if h == nil {
		return
	}
	h.mu.Lock()
	h.pendingTC = tc
	h.mu.Unlock()
}

// subscribe attaches a node to the stream. If log GC already collected
// records above FromLSN the subscription is refused (TruncatedLSN in
// the response tells the replica to checkpoint-resync first).
func (s *Store) subscribe(m *cluster.LogSubscribeReq) (*cluster.LogSubscribeResp, error) {
	s.mu.Lock()
	h := s.hub
	durable := s.durableLSN
	truncated := s.truncatedLSN
	s.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("logstore %s: no push transport armed", s.name)
	}
	resp := &cluster.LogSubscribeResp{DurableLSN: durable, TruncatedLSN: truncated}
	if truncated > m.FromLSN {
		// The gap (FromLSN, truncated] is gone from this store; the
		// replica must bootstrap the missing range from a checkpoint.
		return resp, nil
	}
	window := int(m.Window)
	if window <= 0 {
		window = defaultStreamWindow
	}
	sub := &subscriber{
		node:   m.Node,
		tenant: m.Tenant,
		queue:  make(chan *cluster.LogBatchReq, window),
		poke:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	sub.next.Store(m.FromLSN + 1)
	h.mu.Lock()
	if old := h.subs[m.Node]; old != nil {
		close(old.stop)
	}
	h.subs[m.Node] = sub
	if h.cursor == 0 {
		// First subscriber on an idle hub: the multicast starts at the
		// live edge; anything older is this subscriber's catch-up read.
		h.cursor = s.DurableLSN()
	}
	// Seed the fresh queue with a sync frame so the sender gap-fills up
	// to the cursor even if the store stays quiet after the attach.
	sub.queue <- h.frameLocked(sub.tenant, nil, 0, h.cursor)
	sub.gen = h.frontierGen
	h.mu.Unlock()
	go h.sender(sub)
	s.mSubscribes.Inc()
	s.events.Record(obs.EventStreamAttach, "%s: %s subscribed from LSN %d (window %d)",
		s.name, m.Node, m.FromLSN, window)
	// And nudge the multicast loop for anything newly durable.
	s.kickHub()
	return resp, nil
}

// unsubscribe detaches a node (replica shutdown). Unknown nodes are a
// no-op so retries are idempotent.
func (s *Store) unsubscribe(node string) {
	s.mu.Lock()
	h := s.hub
	s.mu.Unlock()
	if h == nil {
		return
	}
	h.mu.Lock()
	sub := h.subs[node]
	delete(h.subs, node)
	h.mu.Unlock()
	if sub != nil {
		close(sub.stop)
		s.events.Record(obs.EventStreamDetach, "%s: %s unsubscribed", s.name, node)
	}
}

// updateFrontier records the SAL's relayed frontier; the next multicast
// round piggybacks it on a records frame, or pokes the senders for a
// records-less one.
func (s *Store) updateFrontier(m *cluster.FrontierReq) {
	s.mu.Lock()
	h := s.hub
	s.mu.Unlock()
	if h == nil {
		return
	}
	h.mu.Lock()
	changed := false
	if m.DurableLSN > h.masterDurable {
		h.masterDurable = m.DurableLSN
		changed = true
	}
	for _, e := range m.Slices {
		if e.AppliedLSN > h.frontier[e.SliceID] {
			h.frontier[e.SliceID] = e.AppliedLSN
			changed = true
		}
	}
	if changed {
		h.frontierGen++
	}
	h.mu.Unlock()
	if changed {
		s.kickHub()
	}
}

// subscriberFloor returns the lowest LSN any active subscriber still
// needs, or 0 when there are none — the stream's GC pin.
func (s *Store) subscriberFloor() uint64 {
	s.mu.Lock()
	h := s.hub
	s.mu.Unlock()
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var floor uint64
	for _, sub := range h.subs {
		if n := sub.next.Load(); floor == 0 || n < floor {
			floor = n
		}
	}
	return floor
}

// Subscribers counts active stream consumers.
func (s *Store) Subscribers() int {
	s.mu.Lock()
	h := s.hub
	s.mu.Unlock()
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// StreamLag is the record distance between the store's durable LSN and
// the slowest subscriber (0 with no subscribers).
func (s *Store) StreamLag() uint64 {
	floor := s.subscriberFloor()
	if floor == 0 {
		return 0
	}
	if c := s.DurableLSN(); c+1 > floor {
		return c + 1 - floor
	}
	return 0
}

// closeHub stops the multicast loop and every sender.
func (s *Store) closeHub() {
	s.mu.Lock()
	h := s.hub
	s.hub = nil
	s.mu.Unlock()
	if h == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.mu.Lock()
	subs := h.subs
	h.subs = map[string]*subscriber{}
	h.mu.Unlock()
	for _, sub := range subs {
		close(sub.stop)
	}
}

// run is the multicast loop: on every kick, frame the records between
// the cursor and the durable LSN (encoded once, shared by
// all subscribers) and offer the frame to every queue; a subscriber the
// newest relayed frontier has not been framed for is poked for a
// records-less frame, so it advances its visible LSN without records.
func (h *hub) run() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			return
		case <-h.kick:
		}
		for {
			durable := h.s.DurableLSN()
			h.mu.Lock()
			synced := false
			if h.cursor == 0 && len(h.subs) > 0 && durable > 0 {
				// First frame: the multicast starts at the live edge;
				// anything older is each subscriber's catch-up read. The
				// empty sync frame below announces the jump so senders
				// whose subscriber attached before these records existed
				// gap-fill up to the new cursor.
				h.cursor = durable
				synced = true
			}
			cursor := h.cursor
			h.mu.Unlock()
			if synced {
				h.multicast(cursor, nil, 0)
			}
			if cursor >= durable {
				break
			}
			n := durable - cursor
			if n > maxStreamBatch {
				n = maxStreamBatch
			}
			enc, count := h.s.ReadEncodedFrom(cursor, int(n))
			if count == 0 {
				// The range is durable but not yet readable (shouldn't
				// happen — durable is derived from the log); bail
				// rather than spin.
				break
			}
			// Frames nothing when a first subscriber moved the cursor
			// while the range was read; the next pass reframes from it.
			h.multicast(cursor, enc, uint32(count))
		}
		// Frontier-only advance: a relay landed after the last frame.
		h.mu.Lock()
		for _, sub := range h.subs {
			if sub.gen != h.frontierGen {
				select {
				case sub.poke <- struct{}{}:
				default: // one is pending already; its frame will carry this frontier
				}
			}
		}
		h.mu.Unlock()
	}
}

// multicast frames the count records in enc, which follow LSN from,
// advances the cursor past them and offers the frame to every
// subscriber's queue, all under one hold of h.mu, so a subscriber that
// joins later never receives records its attach sync frame already
// covers. It frames nothing when the cursor is no longer at from: a
// first subscriber moved it to the live edge while the records were
// read, and its sync frame covers them. A full queue means the consumer
// is too slow for its window: it is disconnected (never blocking the
// stream) and will resubscribe.
func (h *hub) multicast(from uint64, enc []byte, count uint32) {
	h.mu.Lock()
	if h.cursor != from {
		h.mu.Unlock()
		return
	}
	h.cursor += uint64(count)
	frame := h.frameLocked(0, enc, count, h.cursor)
	var slow []*subscriber
	for _, sub := range h.subs {
		f := frame
		if f.Tenant != sub.tenant {
			c := *frame
			c.Tenant = sub.tenant
			f = &c
		}
		select {
		case sub.queue <- f:
			sub.gen = h.frontierGen
		default:
			slow = append(slow, sub)
		}
	}
	for _, sub := range slow {
		delete(h.subs, sub.node)
		sub.dropped = true
	}
	h.mu.Unlock()
	for _, sub := range slow {
		close(sub.stop)
		h.s.mStreamDisconnects.Inc()
		h.s.events.Record(obs.EventStreamDisconnect,
			"%s: %s disconnected (flow control: queue of %d frames full at LSN %d)",
			h.s.name, sub.node, cap(sub.queue), sub.next.Load())
	}
}

// frameLocked builds a frame ending at streamLSN that carries the
// relayed frontier as it stands now; whoever hands it to a subscriber
// sets that subscriber's gen. Caller holds h.mu.
func (h *hub) frameLocked(tenant uint32, enc []byte, count uint32, streamLSN uint64) *cluster.LogBatchReq {
	frame := &cluster.LogBatchReq{
		Tenant: tenant,
		Recs:   enc, Count: count,
		StreamLSN:        streamLSN,
		MasterDurableLSN: h.masterDurable,
		TruncatedLSN:     h.s.TruncatedLSN(),
	}
	for sliceID, lsn := range h.frontier {
		frame.Frontier = append(frame.Frontier, cluster.SliceLSNEntry{SliceID: sliceID, AppliedLSN: lsn})
	}
	return frame
}

// sender drains one subscriber's queue, filling any gap between the
// subscriber's own cursor and a frame's records with direct store reads
// (the attach-time catch-up path), and pushes frames over the
// transport. A push error disconnects the subscriber — the replica's
// watchdog resubscribes.
func (h *hub) sender(sub *subscriber) {
	defer close(sub.done)
	for {
		select {
		case <-sub.stop:
			// A subscriber flow control dropped gets a last records-less
			// frame with the newest master durable LSN: it now knows the
			// master is ahead of its tail, and its watchdog's short
			// "behind" timeout resubscribes it.
			h.mu.Lock()
			var last *cluster.LogBatchReq
			if sub.dropped {
				last = h.frameLocked(sub.tenant, nil, 0, sub.next.Load()-1)
			}
			h.mu.Unlock()
			if last != nil {
				h.push(sub, last)
			}
			return
		case <-sub.poke:
			// Frontier only: the frame ends where this subscriber already
			// is, so it says nothing about records still in the queue. A
			// records frame queued since the poke already carries it.
			h.mu.Lock()
			var frame *cluster.LogBatchReq
			if sub.gen != h.frontierGen {
				frame = h.frameLocked(sub.tenant, nil, 0, sub.next.Load()-1)
				sub.gen = h.frontierGen
			}
			h.mu.Unlock()
			if frame != nil && !h.push(sub, frame) {
				return
			}
		case frame := <-sub.queue:
			// Catch up to the frame: records in (next-1, frameFrom)
			// are read straight from the log. frameFrom is implicit:
			// StreamLSN - Count records end at StreamLSN.
			next := sub.next.Load()
			from := frame.StreamLSN + 1 - uint64(frame.Count)
			for next < from {
				want := from - next
				if want > maxStreamBatch {
					want = maxStreamBatch
				}
				enc, count := h.s.ReadEncodedFrom(next-1, int(want))
				if count == 0 {
					break // GC'd or torn below; frame records still flow
				}
				cf := &cluster.LogBatchReq{
					Tenant: sub.tenant, Recs: enc, Count: uint32(count),
					StreamLSN:        next - 1 + uint64(count),
					MasterDurableLSN: frame.MasterDurableLSN,
					TruncatedLSN:     frame.TruncatedLSN,
					Frontier:         frame.Frontier,
				}
				if !h.push(sub, cf) {
					return
				}
				next += uint64(count)
				sub.next.Store(next)
			}
			if !h.push(sub, frame) {
				return
			}
			if frame.StreamLSN+1 > sub.next.Load() {
				sub.next.Store(frame.StreamLSN + 1)
			}
		}
	}
}

// push sends one frame to the subscriber node, wrapped in a server-side
// span when a sampled append triggered this round. Returns false (and
// removes the subscriber) on transport error.
func (h *hub) push(sub *subscriber, frame *cluster.LogBatchReq) bool {
	h.mu.Lock()
	tc := h.pendingTC
	h.pendingTC = obs.TraceContext{}
	h.mu.Unlock()
	sp := h.s.tracer.StartSpan(tc, "logstore.stream_push")
	if sp != nil {
		sp.Annotate("to=%s recs=%d stream_lsn=%d", sub.node, frame.Count, frame.StreamLSN)
	}
	_, err := cluster.CallTraced(h.tr, spanCtx(sp, tc), sub.node, frame)
	sp.End()
	if err != nil {
		h.mu.Lock()
		if h.subs[sub.node] == sub {
			delete(h.subs, sub.node)
		}
		h.mu.Unlock()
		h.s.mStreamPushErrors.Inc()
		h.s.events.Record(obs.EventStreamDisconnect, "%s: %s disconnected (push: %v)",
			h.s.name, sub.node, err)
		return false
	}
	h.s.mStreamBatches.Inc()
	h.s.mStreamRecords.Add(uint64(frame.Count))
	return true
}

// spanCtx returns the span's context when one was opened, else the
// fallback.
func spanCtx(sp *obs.SpanHandle, fallback obs.TraceContext) obs.TraceContext {
	if sp != nil {
		return sp.Context()
	}
	return fallback
}
