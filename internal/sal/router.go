package sal

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/obs"
)

// ReadRouter picks which Page Store replica serves each per-slice scan
// sub-batch. Every replica holds the same slice versions (the SAL
// replicates every log record to the full replica set), so reads are
// free to chase load: the router tracks in-flight requests and an EWMA
// of observed latency per store and sends the next sub-batch to the
// cheapest one, rotating among equal scores.
type ReadRouter struct {
	rotate  atomic.Uint64
	routed  atomic.Uint64
	retried atomic.Uint64
	hedged  atomic.Uint64

	mu    sync.Mutex
	nodes map[string]*nodeLoad
}

// nodeLoad is the per-store tracker behind routing decisions.
type nodeLoad struct {
	inflight atomic.Int64
	reqs     atomic.Uint64
	errs     atomic.Uint64
	// ewmaMicros holds math.Float64bits of the smoothed call latency.
	ewmaMicros atomic.Uint64
}

// routerEwmaAlpha weights new latency observations; ~0.2 settles in a few
// requests without thrashing on one outlier.
const routerEwmaAlpha = 0.2

// minLatencyMicros floors the EWMA in scoring so a store with no
// history yet doesn't look infinitely fast.
const minLatencyMicros = 1.0

// NewReadRouter builds an empty router.
func NewReadRouter() *ReadRouter {
	return &ReadRouter{nodes: make(map[string]*nodeLoad)}
}

func (r *ReadRouter) load(node string) *nodeLoad {
	r.mu.Lock()
	nl, ok := r.nodes[node]
	if !ok {
		nl = &nodeLoad{}
		r.nodes[node] = nl
	}
	r.mu.Unlock()
	return nl
}

func (nl *nodeLoad) ewma() float64 { return math.Float64frombits(nl.ewmaMicros.Load()) }

// score is the expected cost of sending one more request to the node:
// queue depth (including the request being scored) times smoothed
// per-request latency.
func (nl *nodeLoad) score() float64 {
	lat := nl.ewma()
	if lat < minLatencyMicros {
		lat = minLatencyMicros
	}
	return float64(nl.inflight.Load()+1) * lat
}

// Pick chooses a replica from nodes. Nil-safe: a nil router always
// returns the first node.
func (r *ReadRouter) Pick(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	if r == nil || len(nodes) == 1 {
		return nodes[0]
	}
	r.routed.Add(1)
	n := int(r.rotate.Add(1))
	// Rotate the starting point so equally-scored stores share load
	// instead of everything collapsing onto the first name.
	best, bestScore := "", 0.0
	for i := 0; i < len(nodes); i++ {
		node := nodes[(n+i)%len(nodes)]
		if s := r.load(node).score(); best == "" || s < bestScore {
			best, bestScore = node, s
		}
	}
	return best
}

// Begin marks a request in flight on node and returns the completion
// callback that settles the latency/error accounting. Nil-safe.
func (r *ReadRouter) Begin(node string) func(error) {
	if r == nil {
		return func(error) {}
	}
	nl := r.load(node)
	nl.inflight.Add(1)
	t0 := time.Now()
	return func(err error) {
		nl.inflight.Add(-1)
		nl.reqs.Add(1)
		if err != nil {
			nl.errs.Add(1)
			return
		}
		us := float64(time.Since(t0).Microseconds())
		if us < minLatencyMicros {
			us = minLatencyMicros
		}
		for {
			old := nl.ewmaMicros.Load()
			cur := math.Float64frombits(old)
			next := us
			if cur > 0 {
				next = cur + routerEwmaAlpha*(us-cur)
			}
			if nl.ewmaMicros.CompareAndSwap(old, math.Float64bits(next)) {
				return
			}
		}
	}
}

// EWMALatency returns the smoothed request latency for node (0 if the
// node has no history yet).
func (r *ReadRouter) EWMALatency(node string) time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.load(node).ewma() * float64(time.Microsecond))
}

func (r *ReadRouter) noteRetry() {
	if r != nil {
		r.retried.Add(1)
	}
}

func (r *ReadRouter) noteHedge() {
	if r != nil {
		r.hedged.Add(1)
		r.retried.Add(1)
	}
}

// RouterNodeStats is one store's routing view.
type RouterNodeStats struct {
	Node              string  `json:"node"`
	InFlight          int64   `json:"in_flight"`
	Requests          uint64  `json:"requests"`
	Errors            uint64  `json:"errors"`
	EWMALatencyMicros float64 `json:"ewma_latency_micros"`
}

// RouterStats is a snapshot of scan routing activity, surfaced through
// DB.ScanRouting() and the server's /stats payloads.
type RouterStats struct {
	// ScanRouted counts replica picks; ScanRetried counts sub-batches
	// re-sent to another replica (failures plus hedges); ScanHedged is
	// the straggler-hedge subset of ScanRetried.
	ScanRouted  uint64            `json:"scan_routed"`
	ScanRetried uint64            `json:"scan_retried"`
	ScanHedged  uint64            `json:"scan_hedged"`
	Nodes       []RouterNodeStats `json:"nodes,omitempty"`
}

// Stats snapshots the router. Nil-safe.
func (r *ReadRouter) Stats() RouterStats {
	if r == nil {
		return RouterStats{}
	}
	st := RouterStats{
		ScanRouted:  r.routed.Load(),
		ScanRetried: r.retried.Load(),
		ScanHedged:  r.hedged.Load(),
	}
	r.mu.Lock()
	for node, nl := range r.nodes {
		st.Nodes = append(st.Nodes, RouterNodeStats{
			Node:              node,
			InFlight:          nl.inflight.Load(),
			Requests:          nl.reqs.Load(),
			Errors:            nl.errs.Load(),
			EWMALatencyMicros: nl.ewma(),
		})
	}
	r.mu.Unlock()
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].Node < st.Nodes[j].Node })
	return st
}

// RegisterMetrics exports the router counters. role labels the frontend
// ("master" or the replica's name) so master and replica routers can
// share one exposition.
func (r *ReadRouter) RegisterMetrics(reg *obs.Registry, role string) {
	if r == nil || reg == nil {
		return
	}
	l := obs.L("role", role)
	reg.CounterFunc("taurus_scan_routed_total",
		"Per-slice scan sub-batches routed to a Page Store replica.",
		func() float64 { return float64(r.routed.Load()) }, l)
	reg.CounterFunc("taurus_scan_retried_total",
		"Scan sub-batches re-sent to another replica (failure or straggler hedge).",
		func() float64 { return float64(r.retried.Load()) }, l)
	reg.CounterFunc("taurus_scan_hedged_total",
		"Straggler hedges: backup scan sub-batches launched while the primary was still running.",
		func() float64 { return float64(r.hedged.Load()) }, l)
}

// FanOut is the batch-read dispatcher shared by the SAL and the
// read-replica tier: it splits a page list into per-slice sub-batches
// (§VI-2), routes each to a Page Store replica through the ReadRouter,
// issues them concurrently, retries failed sub-batches on the next
// replica, hedges stragglers, and reassembles the responses in request
// order.
type FanOut struct {
	Transport cluster.Transport
	Tenant    uint32
	Plugin    string
	SliceOf   func(pageID uint64) uint32
	// NodesFor runs any pre-read wait and returns the slice's full
	// replica set (in placement order).
	NodesFor func(sliceID uint32, ids []uint64) ([]string, error)
	Router   *ReadRouter
	Events   *obs.EventRing
	// HedgeFloor is the minimum straggler wait before a backup request
	// launches (the effective wait is max(HedgeFloor, 4x the primary's
	// EWMA latency)). Zero selects defaultHedgeFloor; negative disables
	// hedging.
	HedgeFloor time.Duration
}

const defaultHedgeFloor = 2 * time.Millisecond

// hedgeMultiple: a request this many times slower than the store's
// smoothed latency is a straggler.
const hedgeMultiple = 4

// BatchRead dispatches pageIDs and reassembles the responses. tc, when
// valid, propagates the caller's trace so per-slice server spans hang
// under the scan's fan-out tree.
func (f *FanOut) BatchRead(tc obs.TraceContext, pageIDs []uint64, lsn uint64, desc []byte) (*BatchResult, error) {
	type subBatch struct {
		sliceID uint32
		ids     []uint64
		pos     []int // positions in the original request
	}
	var order []uint32
	subs := make(map[uint32]*subBatch)
	for i, id := range pageIDs {
		sliceID := f.SliceOf(id)
		sb, ok := subs[sliceID]
		if !ok {
			sb = &subBatch{sliceID: sliceID}
			subs[sliceID] = sb
			order = append(order, sliceID)
		}
		sb.ids = append(sb.ids, id)
		sb.pos = append(sb.pos, i)
	}
	res := &BatchResult{Pages: make([][]byte, len(pageIDs)), SubBatches: len(order)}
	var wg sync.WaitGroup
	errs := make([]error, len(order))
	var mu sync.Mutex
	for oi, sliceID := range order {
		sb := subs[sliceID]
		nodes, err := f.NodesFor(sliceID, sb.ids)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(oi int, sb *subBatch, nodes []string) {
			defer wg.Done()
			br, err := f.callSub(tc, sb.sliceID, sb.ids, lsn, desc, nodes)
			if err != nil {
				errs[oi] = err
				return
			}
			if len(br.Pages) != len(sb.ids) {
				errs[oi] = fmt.Errorf("sal: sub-batch returned %d pages for %d ids", len(br.Pages), len(sb.ids))
				return
			}
			mu.Lock()
			for i, pos := range sb.pos {
				res.Pages[pos] = br.Pages[i]
			}
			res.Processed += int(br.Processed)
			res.Skipped += int(br.Skipped)
			mu.Unlock()
		}(oi, sb, nodes)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// callSub issues one per-slice sub-batch: primary request to the
// router's pick, straggler hedge to the next replica after the hedge
// delay, retry on the next untried replica when an attempt fails. The
// first successful response wins; late responses drain into the
// buffered channel and are dropped.
func (f *FanOut) callSub(tc obs.TraceContext, sliceID uint32, ids []uint64, lsn uint64, desc []byte, nodes []string) (*cluster.BatchReadResp, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sal: slice %d has no replicas", sliceID)
	}
	req := &cluster.BatchReadReq{
		Tenant: f.Tenant, SliceID: sliceID, LSN: lsn,
		PageIDs: ids, Desc: desc, Plugin: f.Plugin,
	}
	type subResult struct {
		resp *cluster.BatchReadResp
		err  error
		node string
	}
	ch := make(chan subResult, len(nodes))
	launch := func(node string) {
		go func() {
			done := f.Router.Begin(node)
			resp, err := cluster.CallTraced(f.Transport, tc, node, req)
			done(err)
			r := subResult{err: err, node: node}
			if err == nil {
				r.resp = resp.(*cluster.BatchReadResp)
			}
			ch <- r
		}()
	}
	tried := map[string]bool{}
	next := func() string {
		for _, n := range nodes {
			if !tried[n] {
				tried[n] = true
				return n
			}
		}
		return ""
	}
	primary := f.Router.Pick(nodes)
	tried[primary] = true
	launch(primary)
	inFlight := 1

	var hedgeC <-chan time.Time
	if len(nodes) > 1 && f.HedgeFloor >= 0 {
		delay := f.HedgeFloor
		if delay == 0 {
			delay = defaultHedgeFloor
		}
		if byEwma := hedgeMultiple * f.Router.EWMALatency(primary); byEwma > delay {
			delay = byEwma
		}
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			inFlight--
			if r.err == nil {
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if n := next(); n != "" {
				f.Router.noteRetry()
				f.Events.Record(obs.EventScanRetry,
					"slice %d: %s failed (%v), retrying on %s", sliceID, r.node, r.err, n)
				launch(n)
				inFlight++
			} else if inFlight == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if n := next(); n != "" {
				f.Router.noteHedge()
				f.Events.Record(obs.EventScanRetry,
					"slice %d: %s straggling, hedging to %s", sliceID, primary, n)
				launch(n)
				inFlight++
			}
		}
	}
}
