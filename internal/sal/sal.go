// Package sal implements the Storage Abstraction Layer: "an independent
// component running on the database server [that] isolates the database
// frontend from the underlying complexity of remote storage; slicing of
// the database; ... The SAL writes log records to Log Stores; distributes
// them to Page Stores; and reads pages from Page Stores. The SAL is also
// responsible for creating, managing, and destroying slices in Page
// Stores; and routing page read requests to Page Stores" (§II).
//
// The write path is a pipelined group-commit engine (see pipeline.go):
// writers stage records into one buffer without blocking on I/O, the
// flusher ships sealed windows to the Log Stores in LSN order
// (durability, in triplicate) and then to the Page Store replicas
// (application, asynchronous, per slice), and commit waiters block only
// until the durable-LSN watermark covers their transaction's own max
// LSN. Readers wait per page, not per slice.
//
// For batch reads, "the Storage Abstraction Layer splits a batch read
// into multiple sub-batches, based on where the pages are located. Pages
// that belong to the same slice are assigned to the same sub-batch. SAL
// concurrently sends the sub-batches to Page Stores, with the effect that
// multiple Page Stores are engaged in parallel" (§VI-2).
package sal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/obs"
	"taurus/internal/wal"
)

// DefaultPagesPerSlice maps the paper's fixed 10 GB slices onto 16 KB
// pages (10 GB / 16 KB = 655,360). Tests and benchmarks shrink it so
// small databases still spread across several slices and Page Stores.
const DefaultPagesPerSlice = 655360

// Config describes the storage cluster layout from one frontend's
// perspective.
type Config struct {
	// Tenant is this database frontend's tenant id on the multi-tenant
	// storage services.
	Tenant uint32
	// Transport carries requests to storage nodes.
	Transport cluster.Transport
	// LogStores are the Log Store node names; writes go to all of them
	// ("in triplicate" with the default three).
	LogStores []string
	// PageStores is the pool of Page Store node names.
	PageStores []string
	// ReplicationFactor is how many Page Stores host each slice
	// (default 3, capped to len(PageStores)).
	ReplicationFactor int
	// PagesPerSlice sets the slice size in pages (default 10 GB worth).
	PagesPerSlice uint64
	// Plugin names the NDP plugin Page Stores should use for this
	// frontend's descriptors.
	Plugin string
	// FlushThreshold is the group-commit window size in records
	// (0 = DefaultFlushThreshold). Commit and read waiters seal early,
	// so the threshold sizes only the windows nobody waits on; tests
	// shrink it to reach the threshold-seal and backpressure paths.
	FlushThreshold int
	// MaxInFlightWindows bounds the LOG-stage depth: how many sealed
	// windows may be waiting for Log Store acknowledgement at once
	// (default 8). Beyond it the flusher — and eventually the writers —
	// stall (backpressure).
	MaxInFlightWindows int
	// ApplyBacklogWindows bounds each slice's APPLY-stage backlog: how
	// many of the slice's durable batches may be queued or in flight
	// toward its Page Stores (default 256). Beyond it the slice's
	// writers stall BEFORE staging — deliberately before, because an
	// unstaged record cannot pin the durable watermark, so one slice's
	// slow replica throttles only that slice's writers and never delays
	// other slices' commits. The bound is per slice, so the frontend
	// holds up to ApplyBacklogWindows batches for every slice with
	// writers: a Page Store that stalls all the slices it holds pins
	// that many times their number. A queued batch pins only its own
	// slice's records (at most one window's share). With one of three
	// Page Stores stalled and a bulk writer spreading ~120-byte rows
	// over every slice, the frontend held about 96 000 records (256
	// windows) in 18–20 MB of heap at 64 slices and 14–15 MB at 8.
	ApplyBacklogWindows int
	// Metrics, when non-nil, receives write-path stage histograms,
	// fetch-latency histograms, and pipeline gauges. nil disables
	// instrumentation at near-zero cost.
	Metrics *obs.Registry
	// Tracer, when non-nil, records pipeline spans (sal.window,
	// sal.apply, sal.durable_wait) for sampled statements and lets the
	// trace context ride the transport to the storage nodes. nil
	// disables tracing at near-zero cost.
	Tracer *obs.Tracer
	// Events, when non-nil, is the flight recorder for structural
	// transitions: window seals by reason, sticky-error poisoning. nil
	// is inert.
	Events *obs.EventRing
	// NotifyFrontier forces frontier relays (cluster.FrontierReq — the
	// durable watermark plus per-slice applied LSNs) to the Log Stores
	// on every advance, whether or not an embedded replica registered a
	// watch. Server deployments set it: remote replicas subscribe to
	// the Log Stores' push streams directly and the SAL never sees
	// them. Embedded deployments leave it off — AddFrontierWatch arms
	// the relays when the first replica opens, so masters without
	// replicas pay nothing.
	NotifyFrontier bool
}

// SAL is the storage abstraction layer instance inside one frontend.
type SAL struct {
	cfg Config

	lsn atomic.Uint64
	rr  atomic.Uint64 // round-robin read replica selector (point reads)

	// router + fanOut serve the NDP scan read path: per-replica
	// in-flight/EWMA tracking, least-loaded sub-batch routing, retry
	// and straggler hedging.
	router *ReadRouter
	fanOut *FanOut

	// pipeline is the write path's staging, sealing and append state.
	pipeline

	// Per-slice replica sets and LSN frontiers.
	slMu      sync.Mutex
	sliceProg map[uint32]*sliceProgress

	// Durable (commit) watermark. durFloor freezes it below the first
	// failed window; durMu also guards pendingQ so sealing
	// and watermark recomputation are atomic. repGen (also under
	// durMu) bumps when a frontier watch is added, so the notifier
	// re-relays the current frontier for a late subscriber.
	durMu         sync.Mutex
	durCond       *sync.Cond
	durable       uint64
	durFloor      uint64
	repGen        uint64
	durableAtomic atomic.Uint64

	// Flush drain.
	flushMu   sync.Mutex
	flushCond *sync.Cond

	// Apply plumbing: per-slice FIFO workers fed as windows turn
	// durable. Worker queues are unbounded lists (backpressure is the
	// per-slice apply backlog bound, applied to writers before they
	// stage) so handing a durable window to the apply stage never
	// blocks the durability pipeline.
	quit         chan struct{}
	applyMu      sync.Mutex
	applyWorkers map[uint32]*sliceQueue
	sliceWG      sync.WaitGroup

	notifierDone chan struct{}
	// Frontier relays to the Log Stores (push-stream distribution):
	// frontierWatch counts embedded replicas that want them (remote
	// ones force them via Config.NotifyFrontier); appliedGen bumps when
	// any slice's applied-on-all-replicas LSN advances, waking the
	// notifier to relay the new frontier.
	frontierWatch atomic.Int64
	appliedGen    atomic.Uint64

	errMu sync.Mutex
	err   error

	// Sampled-transaction trace contexts, registered by the SQL layer
	// around a traced statement and consulted by Write to attribute
	// staged records (btree-created records carry only the TrxID, not
	// the context). traceCount gates the map lookup so the unsampled
	// fast path costs one atomic load.
	traceMu    sync.Mutex
	txnTraces  map[uint64]obs.TraceContext
	traceCount atomic.Int64

	closed    atomic.Bool
	closeOnce sync.Once

	counters pipelineCounters
	m        salMetrics
}

// New validates the config, starts the write pipeline, and returns a
// SAL. Call Close to drain and stop it.
func New(cfg Config) (*SAL, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("sal: transport required")
	}
	if len(cfg.PageStores) == 0 {
		return nil, fmt.Errorf("sal: at least one page store required")
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.ReplicationFactor > len(cfg.PageStores) {
		cfg.ReplicationFactor = len(cfg.PageStores)
	}
	if cfg.PagesPerSlice == 0 {
		cfg.PagesPerSlice = DefaultPagesPerSlice
	}
	if cfg.FlushThreshold <= 0 {
		cfg.FlushThreshold = DefaultFlushThreshold
	}
	if cfg.MaxInFlightWindows <= 0 {
		cfg.MaxInFlightWindows = DefaultMaxInFlightWindows
	}
	if cfg.ApplyBacklogWindows <= 0 {
		cfg.ApplyBacklogWindows = DefaultApplyBacklogWindows
	}
	s := &SAL{
		cfg:       cfg,
		sliceProg: make(map[uint32]*sliceProgress),
	}
	s.router = NewReadRouter()
	s.fanOut = &FanOut{
		Transport: cfg.Transport,
		Tenant:    cfg.Tenant,
		Plugin:    cfg.Plugin,
		SliceOf:   s.SliceOf,
		NodesFor: func(sliceID uint32, ids []uint64) ([]string, error) {
			if err := s.waitAppliedPages(sliceID, ids...); err != nil {
				return nil, err
			}
			return s.placement(sliceID)
		},
		Router: s.router,
		Events: cfg.Events,
	}
	s.initMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		s.router.RegisterMetrics(cfg.Metrics, "master")
	}
	s.startPipeline()
	return s, nil
}

// RouterStats snapshots the scan read router: sub-batches routed,
// retried, hedged, and the per-store load trackers.
func (s *SAL) RouterStats() RouterStats { return s.router.Stats() }

// SliceOf maps a page to its slice.
func (s *SAL) SliceOf(pageID uint64) uint32 {
	return uint32(pageID / s.cfg.PagesPerSlice)
}

// ReplicaSet computes a slice's Page Store replica set: round-robin by
// slice id over the node pool, so consecutive slices land on different
// Page Stores and batch reads fan out (§VI-2). Exported because the
// read-replica tier routes its page reads with the same rule — the two
// must never diverge, or replicas would read from nodes that do not
// host the slice.
func ReplicaSet(pageStores []string, replicationFactor int, sliceID uint32) []string {
	n := len(pageStores)
	nodes := make([]string, 0, replicationFactor)
	for i := 0; i < replicationFactor; i++ {
		nodes = append(nodes, pageStores[(int(sliceID)+i)%n])
	}
	return nodes
}

// CurrentLSN returns the last allocated LSN.
func (s *SAL) CurrentLSN() uint64 { return s.lsn.Load() }

// ResumeLSN moves the LSN allocator to at least lsn, so a frontend
// restarted over a recovered log continues the sequence instead of
// reissuing LSNs the Log Stores already consider durable. The durable
// watermark follows: those records are already acknowledged on disk.
func (s *SAL) ResumeLSN(lsn uint64) {
	for {
		cur := s.lsn.Load()
		if cur >= lsn || s.lsn.CompareAndSwap(cur, lsn) {
			break
		}
	}
	s.durMu.Lock()
	if lsn > s.durable {
		s.durable = lsn
		s.durableAtomic.Store(lsn)
		s.durCond.Broadcast()
	}
	s.durMu.Unlock()
}

// Replay pushes already-durable log records back through the Page Store
// application path, rebuilding slice state after a restart. Records keep
// the LSNs they were logged with; nothing is re-logged. Catalog records
// are frontend-only and skipped. Records must arrive in LSN order (the
// order the recovery reader yields them). Replay runs synchronously —
// it is a recovery-time operation, before any pipeline traffic.
func (s *SAL) Replay(recs []wal.Record) error {
	var order []uint32
	groups := make(map[uint32]*sliceBatch)
	for i := range recs {
		rec := &recs[i]
		if rec.Type == wal.TypeCatalog {
			continue
		}
		sliceID := s.SliceOf(rec.PageID)
		g, ok := groups[sliceID]
		if !ok {
			g = &sliceBatch{pageMax: make(map[uint64]uint64)}
			groups[sliceID] = g
			order = append(order, sliceID)
		}
		g.enc = rec.Encode(g.enc)
		g.maxLSN = rec.LSN
	}
	for _, sliceID := range order {
		nodes, err := s.placement(sliceID)
		if err != nil {
			return err
		}
		for _, node := range nodes {
			if _, err := s.cfg.Transport.Call(node, &cluster.WriteLogsReq{
				Tenant: s.cfg.Tenant, SliceID: sliceID, Recs: groups[sliceID].enc,
			}); err != nil {
				return fmt.Errorf("sal: replaying slice %d to %s: %w", sliceID, node, err)
			}
		}
		sp := s.progress(sliceID)
		sp.lastStaged.Store(groups[sliceID].maxLSN)
		sp.mu.Lock()
		if groups[sliceID].maxLSN > sp.applied {
			sp.applied = groups[sliceID].maxLSN
		}
		sp.mu.Unlock()
	}
	return nil
}

// GCWatermark computes the cluster-wide log GC watermark: every Page
// Store node is asked for the minimum LSN its slices have durably
// persisted (checkpointed), and the minimum across all nodes hosting
// this tenant's slices comes back. Log records at or below the
// watermark are reflected in a durable page checkpoint on every replica
// of every slice, so — catalog coverage aside, which is the frontend
// checkpoint's job — they are no longer needed for recovery: in Taurus,
// "log records can be purged once all slice replicas have applied
// them". Returns 0 when nothing may be collected: no node hosts slices
// yet, or some slice has no durable checkpoint.
func (s *SAL) GCWatermark() (uint64, error) {
	var watermark uint64
	seen := false
	for _, node := range s.cfg.PageStores {
		resp, err := s.cfg.Transport.Call(node, &cluster.PageLSNReq{Tenant: s.cfg.Tenant})
		if err != nil {
			return 0, fmt.Errorf("sal: page store %s lsn query: %w", node, err)
		}
		r := resp.(*cluster.PageLSNResp)
		if r.Slices == 0 {
			continue
		}
		if r.PersistedLSN == 0 {
			return 0, nil // an unpersisted slice pins the whole log
		}
		if !seen || r.PersistedLSN < watermark {
			watermark = r.PersistedLSN
		}
		seen = true
	}
	if !seen {
		return 0, nil
	}
	return watermark, nil
}

// GCResult totals one TruncateLogs sweep across the Log Stores.
type GCResult struct {
	SegmentsRemoved int
	BytesReclaimed  uint64
}

// TruncateLogs asks every Log Store to garbage-collect records below
// watermark. The caller is responsible for the watermark's safety: it
// must not exceed what the durable checkpoints (page slices and the
// frontend's catalog/meta checkpoint) cover.
func (s *SAL) TruncateLogs(watermark uint64) (GCResult, error) {
	var res GCResult
	if watermark == 0 {
		return res, nil
	}
	for _, node := range s.cfg.LogStores {
		resp, err := s.cfg.Transport.Call(node, &cluster.LogTruncateReq{
			Tenant: s.cfg.Tenant, Watermark: watermark,
		})
		if err != nil {
			return res, fmt.Errorf("sal: log store %s truncate: %w", node, err)
		}
		gc := resp.(*cluster.LogGCResp)
		res.SegmentsRemoved += int(gc.Removed)
		res.BytesReclaimed += gc.Bytes
	}
	return res, nil
}

// AddFrontierWatch arms frontier relays to the Log Stores: while at
// least one watch is held (one per subscribed embedded replica), every
// durable or applied advance is relayed as a cluster.FrontierReq —
// O(#LogStores) per advance, independent of the replica count — and the
// Log Store hubs piggyback it on their pushed stream frames.
func (s *SAL) AddFrontierWatch() {
	s.frontierWatch.Add(1)
	// Wake the notifier so a replica attaching after the last write
	// still gets the current frontier relayed promptly.
	s.durMu.Lock()
	s.repGen++
	s.durCond.Broadcast()
	s.durMu.Unlock()
}

// RemoveFrontierWatch releases one frontier watch.
func (s *SAL) RemoveFrontierWatch() {
	s.frontierWatch.Add(-1)
}

// frontierActive reports whether frontier relays should be sent.
func (s *SAL) frontierActive() bool {
	return (s.cfg.NotifyFrontier || s.frontierWatch.Load() > 0) && len(s.cfg.LogStores) > 0
}

// noteApplied wakes the notifier after a slice's applied-on-all-
// replicas LSN advanced. Free when no frontier watch is armed.
func (s *SAL) noteApplied() {
	if !s.frontierActive() {
		return
	}
	s.appliedGen.Add(1)
	s.durMu.Lock()
	s.durCond.Broadcast()
	s.durMu.Unlock()
}

// AppliedFrontier snapshots the durable watermark and every known
// slice's applied-on-all-replicas LSN — the payload of a frontier
// relay, and the authority a pushed replica advances its visible LSN
// against (an LSN the SAL reports applied is applied on EVERY Page
// Store replica of the slice, so the replica needs no per-node
// minimum of its own).
func (s *SAL) AppliedFrontier() (uint64, []cluster.SliceLSNEntry) {
	s.slMu.Lock()
	sps := make(map[uint32]*sliceProgress, len(s.sliceProg))
	for id, sp := range s.sliceProg {
		sps[id] = sp
	}
	s.slMu.Unlock()
	entries := make([]cluster.SliceLSNEntry, 0, len(sps))
	for id, sp := range sps {
		entries = append(entries, cluster.SliceLSNEntry{SliceID: id, AppliedLSN: sp.appliedLSN()})
	}
	return s.durableAtomic.Load(), entries
}

// readReplica picks a replica for reads, round-robin.
func (s *SAL) readReplica(nodes []string) string {
	return nodes[int(s.rr.Add(1))%len(nodes)]
}

// ReadPage fetches one page image at the given LSN (0 = latest). It
// waits only until the slice has applied everything staged for THIS
// page — never for the slice's whole staged prefix, let alone a full
// pipeline flush — and with nothing pending the wait is a single atomic
// load.
func (s *SAL) ReadPage(pageID, lsn uint64) ([]byte, error) {
	sliceID := s.SliceOf(pageID)
	if err := s.waitAppliedPages(sliceID, pageID); err != nil {
		return nil, err
	}
	nodes, err := s.placement(sliceID)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if s.m.enabled {
		t0 = time.Now()
	}
	resp, err := s.cfg.Transport.Call(s.readReplica(nodes), &cluster.ReadPageReq{
		Tenant: s.cfg.Tenant, SliceID: sliceID, PageID: pageID, LSN: lsn,
	})
	if err != nil {
		return nil, err
	}
	if s.m.enabled {
		s.m.fetchPage.ObserveDuration(time.Since(t0))
	}
	return resp.(*cluster.PageResp).Page, nil
}

// BatchResult is the reassembled result of a fanned-out batch read.
type BatchResult struct {
	// Pages holds one encoded page per requested ID, in request order.
	Pages [][]byte
	// Processed and Skipped total the NDP resource-control outcomes
	// across all sub-batches.
	Processed int
	Skipped   int
	// SubBatches is how many Page Store requests served the batch.
	SubBatches int
}

// BatchRead splits the page list into per-slice sub-batches, dispatches
// them concurrently, and reassembles the responses in request order.
// desc is the encoded NDP descriptor (nil for a plain batch read). Each
// sub-batch waits only until the pages it actually requests are
// applied.
func (s *SAL) BatchRead(pageIDs []uint64, lsn uint64, desc []byte) (*BatchResult, error) {
	return s.BatchReadTraced(pageIDs, lsn, desc, obs.TraceContext{})
}

// BatchReadTraced is BatchRead with a trace context: when tc is valid
// (a sampled scan), the per-slice sub-batch RPCs carry it so the Page
// Stores' server spans hang under the scan's fan-out tree.
func (s *SAL) BatchReadTraced(pageIDs []uint64, lsn uint64, desc []byte, tc obs.TraceContext) (*BatchResult, error) {
	var t0 time.Time
	if s.m.enabled {
		t0 = time.Now()
		defer func() { s.m.fetchBatch.ObserveDuration(time.Since(t0)) }()
	}
	return s.fanOut.BatchRead(tc, pageIDs, lsn, desc)
}
