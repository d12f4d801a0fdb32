// Package replica implements the read-replica frontend tier: "Read
// replicas ... serve read-only queries from the same Log Stores and
// Page Stores as the master" (§II). A replica does not accept writes
// and owns no write pipeline. It subscribes once to a Log Store's push
// stream (MsgLogSubscribe) and consumes the framed record batches
// (MsgLogBatch) the store's hub multicasts; every frame piggybacks the
// master's durable watermark and the per-slice applied frontier the
// master's SAL relays to the Log Stores. From those it advances a
// replica-visible LSN — the largest durable prefix every touched slice
// has confirmed applied — without asking any storage node, so the
// master's distribution cost stays flat as replicas are added. Reads are
// served from the shared Page Stores at that LSN through the regular
// engine read paths (B+ tree traversal, buffer pool, NDP batch reads),
// so a SELECT on a replica sees a consistent snapshot that trails the
// master by the replication lag, never a torn or non-durable state.
//
// The replica learns two things from the log stream:
//
//   - which pages changed (cached copies older than the new visible LSN
//     are evicted, so the next read refetches the fresh image);
//   - catalog records — DDL the master ran after the replica opened —
//     which attach new tables/indexes to the replica's engine at the
//     root page each record names. A B+ tree root never moves (a full
//     root is raised in place), so the replica never re-binds a tree:
//     a raised root is just another changed page.
//
// The hubs reach the replica on a cluster node of its own (Config.Node)
// — embedded next to its master on the in-proc transport, or a
// standalone process's TCP listener. The replica also pins a version
// floor on the Page Stores (MsgVersionPin) so a lagging snapshot read is
// never dropped by version retention, and rebases on the master's
// checkpoint when log GC overran a detached tail.
package replica

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/engine"
	"taurus/internal/health"
	"taurus/internal/obs"
	"taurus/internal/pagestore"
	"taurus/internal/pstore"
	"taurus/internal/sal"
	"taurus/internal/wal"
)

// Config describes the shared storage cluster from the replica's
// perspective. PageStores, ReplicationFactor, and PagesPerSlice must
// match the master's SAL configuration: the replica computes the same
// round-robin slice placement to route page reads.
type Config struct {
	Transport         cluster.Transport
	Tenant            uint32
	LogStores         []string
	PageStores        []string
	ReplicationFactor int
	PagesPerSlice     uint64
	// Plugin names the NDP plugin for batch-read descriptors (default
	// pagestore.PluginInnoDB, matching the master's SAL).
	Plugin string
	// RefreshInterval is the background loop's idle tick (default 25ms)
	// and the stream watchdog's unit: pushed frames advance the replica
	// as they arrive; a stream silent for 8 ticks while the master is
	// known to be ahead, or 40 regardless, is resubscribed.
	RefreshInterval time.Duration
	// Metrics, when non-nil, receives the replica's lag gauges and
	// catch-up/advance histograms; Name labels them when several
	// replicas share one registry.
	Metrics *obs.Registry
	Name    string
	// Events, when non-nil, records structural events (resyncs, tailed
	// catalog barriers) in the flight recorder. nil is inert.
	Events *obs.EventRing
	// Subscribe is ignored — a replica always subscribes. The field
	// stays only because benchmark/ (frozen for product PRs) sets it.
	Subscribe bool
	// Node is the cluster address this replica answers on — the push
	// stream's destination. Required: it must be registered as a
	// cluster.Handler the Log Stores can reach.
	Node string
	// LoadCheckpoint, when set, returns the master's latest checkpoint
	// meta (nil when none is written yet); the replica rebases on it after
	// log GC overran its detached tail. nil degrades to a blind reset at
	// the truncation watermark.
	LoadCheckpoint func() (*pstore.Meta, error)
}

// Stats is the replica's observable state.
type Stats struct {
	// VisibleLSN is the snapshot reads are currently served at;
	// DurableLSN is the master's durable watermark as far as the
	// replica knows (pushed with every stream frame); TailedLSN is the
	// contiguous log prefix the replica has consumed.
	VisibleLSN uint64
	DurableLSN uint64
	TailedLSN  uint64
	// LagRecords is DurableLSN - VisibleLSN (LSNs are dense, so this
	// counts records); LagBytes is the encoded size of the tailed
	// records not yet visible.
	LagRecords uint64
	LagBytes   uint64
	// Refreshes counts failed page and batch reads — each one a
	// SnapshotMissError in the engine, which a SQL statement restarts on
	// once; RecordsTailed counts log records consumed.
	Refreshes     uint64
	RecordsTailed uint64
	// PagesInvalidated counts cached pages evicted because records
	// covering them became visible; TablesAttached counts tables and
	// indexes attached from DDL tailed from the master; Resyncs counts
	// hard tail resets (page cache dropped) after the master's log GC
	// overran the tail.
	PagesInvalidated uint64
	TablesAttached   uint64
	Resyncs          uint64
	// StreamBatches counts pushed stream frames received; CkptResyncs
	// counts checkpoint rebases after log GC overran a detached tail;
	// Subscribed reports an active push stream.
	StreamBatches uint64
	CkptResyncs   uint64
	Subscribed    bool
}

// lsnSize tracks one pending record's encoded size for the lag-bytes
// gauge.
type lsnSize struct {
	lsn  uint64
	size int
}

// tailRec is one tailed record with its encoded size.
type tailRec struct {
	rec  wal.Record
	size int
}

// Replica is one read-replica frontend's storage view. It implements
// engine.ReadView (reads at the visible LSN) and cluster.Handler (the
// stream frames a Log Store hub pushes). The background loop (and Start,
// before it launches the loop) is the only writer of the visible LSN
// and the engine's catalog; readers only wait on it.
type Replica struct {
	cfg Config

	eng      *engine.Engine
	onAttach func(table string)

	visible  atomic.Uint64
	notified atomic.Uint64 // highest pushed master durable LSN
	rr       atomic.Uint64 // round-robin read replica selector (point reads)

	// router + fanOut serve the NDP scan read path (least-loaded
	// sub-batch routing, retry, straggler hedging) — the replica's own
	// trackers, since its load profile differs from the master's.
	router *sal.ReadRouter
	fanOut *sal.FanOut

	// mu guards the tail state.
	mu           sync.Mutex
	tailed       uint64              // contiguous consumed log prefix
	buf          map[uint64]tailRec  // out-of-order tailed records
	slicePending map[uint32][]uint64 // slice → sorted pending LSNs
	pagePending  map[uint64][]uint64 // page → sorted pending LSNs
	ddlQ         []wal.Record        // catalog records awaiting visibility
	byteQ        []lsnSize
	pendingBytes uint64
	maxTrx       uint64
	// frontier is the pushed per-slice applied frontier: the master SAL
	// reports a slice here only after every Page Store replica of it
	// confirmed the apply.
	frontier map[uint32]uint64

	// Stream state: subscribed flags an active stream; lastBatch is the
	// UnixNano arrival of the newest frame (watchdog input); subSeq
	// rotates the Log Store choice across (re)subscribes; pinned is the
	// last version-pin LSN sent to the Page Stores.
	subscribed atomic.Bool
	lastBatch  atomic.Int64
	subSeq     atomic.Uint64
	pinned     atomic.Uint64
	// awaited is the highest snapshot a statement restart waits to see
	// passed (AwaitAbove); the loop takes it after its next advance.
	awaited atomic.Uint64

	// health answers MsgPing/MsgHealthReport; nil answers pings with an
	// empty OK report. Armed by SetHealth.
	health *health.Monitor

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	stats struct {
		refreshes        atomic.Uint64
		recordsTailed    atomic.Uint64
		pagesInvalidated atomic.Uint64
		tablesAttached   atomic.Uint64
		resyncs          atomic.Uint64
		lagBytes         atomic.Uint64
		streamBatches    atomic.Uint64
		ckptResyncs      atomic.Uint64
	}

	// Optional instruments, armed when cfg.Metrics is set; nil is inert.
	mAdvance *obs.Histogram
	mCatchup *obs.Histogram
}

// New validates the config and returns a stopped replica; call Bind,
// then Start.
func New(cfg Config) (*Replica, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("replica: transport required")
	}
	if len(cfg.LogStores) == 0 || len(cfg.PageStores) == 0 {
		return nil, fmt.Errorf("replica: log and page stores required")
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.ReplicationFactor > len(cfg.PageStores) {
		cfg.ReplicationFactor = len(cfg.PageStores)
	}
	if cfg.PagesPerSlice == 0 {
		cfg.PagesPerSlice = sal.DefaultPagesPerSlice
	}
	if cfg.Plugin == "" {
		cfg.Plugin = pagestore.PluginInnoDB
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 25 * time.Millisecond
	}
	if cfg.Node == "" {
		return nil, fmt.Errorf("replica: Node required (the registered cluster address the Log Stores push to)")
	}
	r := &Replica{
		cfg:          cfg,
		buf:          make(map[uint64]tailRec),
		slicePending: make(map[uint32][]uint64),
		pagePending:  make(map[uint64][]uint64),
		frontier:     make(map[uint32]uint64),
		kick:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	r.router = sal.NewReadRouter()
	r.fanOut = &sal.FanOut{
		Transport: cfg.Transport,
		Tenant:    cfg.Tenant,
		Plugin:    cfg.Plugin,
		SliceOf:   r.SliceOf,
		NodesFor: func(sliceID uint32, ids []uint64) ([]string, error) {
			// No pre-read wait: the snapshot LSN is already proven
			// applied everywhere.
			return r.placement(sliceID), nil
		},
		Router: r.router,
		Events: cfg.Events,
	}
	r.registerMetrics(cfg.Metrics, cfg.Name)
	if cfg.Metrics != nil {
		role := cfg.Name
		if role == "" {
			role = "replica"
		}
		r.router.RegisterMetrics(cfg.Metrics, role)
	}
	return r, nil
}

// Bind attaches the replica to its engine. onAttach (optional) runs
// after a tailed CREATE TABLE is attached — the embedded deployment
// refreshes optimizer statistics there. Must be called before Start.
func (r *Replica) Bind(eng *engine.Engine, onAttach func(table string)) {
	r.eng = eng
	r.onAttach = onAttach
}

// Start positions the tail at startLSN (a checkpoint watermark the
// bootstrap already covers, or 0 for a full-log bootstrap), subscribes
// to a Log Store's stream, runs push cycles itself until the visible LSN
// reaches catchUpTo (the master's durable watermark at open time, so the
// replica opens serving everything committed before it; pass 0 to skip),
// and only then launches the background loop — DDL tailed during the
// catch-up is attached before Start returns.
func (r *Replica) Start(startLSN, catchUpTo uint64) error {
	if r.eng == nil {
		return fmt.Errorf("replica: Start before Bind")
	}
	r.mu.Lock()
	r.tailed = startLSN
	r.mu.Unlock()
	r.visible.Store(startLSN)
	raise(&r.notified, startLSN)
	var t0 time.Time
	if r.mCatchup != nil {
		t0 = time.Now()
	}
	for {
		// Acknowledged records live on every Log Store (triplicate
		// writes): fail only when none of them takes the subscription.
		for tries := 1; !r.subscribed.Load(); tries++ {
			if err := r.subscribe(); err != nil && tries == len(r.cfg.LogStores) {
				return err
			}
		}
		if err := r.pushCycle(); err != nil {
			return err
		}
		if r.visible.Load() >= catchUpTo {
			break
		}
		// Waiting on pushed frames: the stream's catch-up records, then
		// the frontier of the master's asynchronous Page Store applies.
		select {
		case <-r.kick:
		case <-time.After(time.Millisecond):
		}
	}
	if r.mCatchup != nil {
		r.mCatchup.ObserveDuration(time.Since(t0))
	}
	go r.loop()
	return nil
}

// Close stops the background loop, detaches from the stream and clears
// this replica's Page Store version pins (both best effort — the hub
// also drops us on the first failed push, and a stale pin is bounded by
// the stores' hard version cap).
func (r *Replica) Close() {
	close(r.stop)
	<-r.done
	for _, node := range r.cfg.LogStores {
		r.cfg.Transport.Call(node, &cluster.LogUnsubscribeReq{Tenant: r.cfg.Tenant, Node: r.cfg.Node})
	}
	r.pinAll(0)
}

// SliceOf maps a page to its slice (the master's rule).
func (r *Replica) SliceOf(pageID uint64) uint32 {
	return uint32(pageID / r.cfg.PagesPerSlice)
}

// placement computes the slice's replica set with the master SAL's
// round-robin rule (shared: sal.ReplicaSet). The replica never creates
// slices — it only reads ones the master already provisioned.
func (r *Replica) placement(sliceID uint32) []string {
	return sal.ReplicaSet(r.cfg.PageStores, r.cfg.ReplicationFactor, sliceID)
}

func (r *Replica) readNode(nodes []string) string {
	return nodes[int(r.rr.Add(1))%len(nodes)]
}

// VisibleLSN implements engine.ReadView.
func (r *Replica) VisibleLSN() uint64 { return r.visible.Load() }

// ReadPage implements engine.ReadView: one page image at the given LSN
// from a Page Store replica of its slice.
func (r *Replica) ReadPage(pageID, lsn uint64) ([]byte, error) {
	sliceID := r.SliceOf(pageID)
	resp, err := r.cfg.Transport.Call(r.readNode(r.placement(sliceID)), &cluster.ReadPageReq{
		Tenant: r.cfg.Tenant, SliceID: sliceID, PageID: pageID, LSN: lsn,
	})
	if err != nil {
		r.stats.refreshes.Add(1)
		return nil, err
	}
	return resp.(*cluster.PageResp).Page, nil
}

// BatchReadTraced implements engine.ReadView: the NDP batch read, split
// into per-slice sub-batches dispatched concurrently (the SAL's shared
// §VI-2 fan-out), at the replica's snapshot LSN, with the scan's trace
// context riding the sub-batch RPCs. No pre-read wait: the snapshot LSN
// is already proven applied everywhere.
func (r *Replica) BatchReadTraced(pageIDs []uint64, lsn uint64, desc []byte, tc obs.TraceContext) (*sal.BatchResult, error) {
	res, err := r.fanOut.BatchRead(tc, pageIDs, lsn, desc)
	if err != nil {
		r.stats.refreshes.Add(1)
	}
	return res, err
}

// RouterStats snapshots this replica frontend's scan read router.
func (r *Replica) RouterStats() sal.RouterStats { return r.router.Stats() }

// Handle implements cluster.Handler: pushed stream frames from a Log
// Store hub, plus health pings.
func (r *Replica) Handle(req any) (any, error) {
	switch m := req.(type) {
	case *cluster.LogBatchReq:
		return r.handleBatch(m)
	case *cluster.PingReq:
		return &cluster.PingResp{Node: r.cfg.Node, Role: "replica",
			Seq: m.Seq, Status: r.health.Worst()}, nil
	case *cluster.HealthReportReq:
		return &cluster.HealthReportResp{Report: r.healthReport()}, nil
	default:
		return nil, fmt.Errorf("replica: unsupported request %T", req)
	}
}

// raise lifts a to lsn unless it is already there or beyond: neither
// the pushed durable watermark nor the visible LSN ever goes backwards.
func raise(a *atomic.Uint64, lsn uint64) {
	for {
		cur := a.Load()
		if lsn <= cur || a.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// kickLoop nudges the background loop (or Start's catch-up).
func (r *Replica) kickLoop() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// handleBatch ingests one pushed stream frame: records enter the tail
// buffer (deduped, so replayed or overlapping delivery is safe), and the
// piggybacked durable watermark and applied frontier are recorded. The
// actual advance runs on the loop goroutine — the sender's RPC returns
// immediately, so the stream's flow-control window measures transport
// backlog, not apply backlog.
func (r *Replica) handleBatch(m *cluster.LogBatchReq) (any, error) {
	r.lastBatch.Store(time.Now().UnixNano())
	r.stats.streamBatches.Add(1)
	if len(m.Recs) > 0 {
		r.ingest(m.Recs)
	}
	raise(&r.notified, m.MasterDurableLSN)
	r.mu.Lock()
	for _, e := range m.Frontier {
		if e.AppliedLSN > r.frontier[e.SliceID] {
			r.frontier[e.SliceID] = e.AppliedLSN
		}
	}
	tailed := r.tailed
	r.mu.Unlock()
	if m.TruncatedLSN > tailed {
		// The store GC'd past our tail mid-stream (a gap the
		// subscribe-time check missed); force a resubscribe, which runs
		// the checkpoint-resync path.
		r.subscribed.Store(false)
	}
	r.kickLoop()
	return &cluster.Ack{LSN: tailed}, nil
}

// loop is the background goroutine: one push cycle per pushed frame
// (kick) or idle tick.
func (r *Replica) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
		case <-t.C:
		}
		r.pushCycle() // best effort; next round retries
	}
}

// pushCycle is one round: watch the stream's health, resubscribe when
// it went dead, advance from the pushed state. A failed resubscribe
// just retries next round, on the next Log Store in the rotation — no
// new state arrives meanwhile, so there is nothing else to do.
func (r *Replica) pushCycle() error {
	if r.subscribed.Load() {
		idle := time.Duration(time.Now().UnixNano() - r.lastBatch.Load())
		r.mu.Lock()
		behind := r.notified.Load() > r.tailed
		r.mu.Unlock()
		// Declare the stream dead when frames stop while the master is
		// known to be ahead (fast path), or after a long silent window
		// regardless (catches a store that died while the master idled).
		if (behind && idle > 8*r.cfg.RefreshInterval) || idle > 40*r.cfg.RefreshInterval {
			r.subscribed.Store(false)
		}
	}
	if !r.subscribed.Load() {
		r.subscribe()
	}
	err := r.advance()
	// A statement restart waits above a snapshot this advance did not
	// pass: nothing pushed moves it, so the stream may not be delivering
	// (a hub drops a subscriber that overflowed its window without
	// telling it). Resubscribe next round, not at the watchdog.
	if w := r.awaited.Swap(0); w != 0 && r.visible.Load() <= w {
		r.subscribed.Store(false)
		r.kickLoop()
	}
	return err
}

// subscribe attaches to one Log Store's push stream, rotating the store
// choice across attempts. A refusal because log GC overran the tail
// rebases on the master's checkpoint, then retries once.
func (r *Replica) subscribe() error {
	store := r.cfg.LogStores[int(r.subSeq.Add(1))%len(r.cfg.LogStores)]
	for attempt := 0; ; attempt++ {
		r.mu.Lock()
		from := r.tailed
		r.mu.Unlock()
		resp, err := r.cfg.Transport.Call(store, &cluster.LogSubscribeReq{
			Tenant: r.cfg.Tenant, Node: r.cfg.Node, FromLSN: from,
		})
		if err != nil {
			return err
		}
		sub := resp.(*cluster.LogSubscribeResp)
		if sub.TruncatedLSN > from {
			if attempt > 0 {
				return fmt.Errorf("replica %s: %s truncated to %d, past the checkpoint rebase at %d",
					r.cfg.Name, store, sub.TruncatedLSN, from)
			}
			r.checkpointResync(sub.TruncatedLSN)
			continue
		}
		// Attached. The ack's durable watermark seeds the floor until the
		// first pushed frame arrives.
		raise(&r.notified, sub.DurableLSN)
		r.lastBatch.Store(time.Now().UnixNano())
		r.subscribed.Store(true)
		r.maybeRepin(r.visible.Load())
		return nil
	}
}

// advance runs one advance cycle: visibility is computed from the
// pushed per-slice frontier and durable watermark — no storage RPCs.
// Only the loop goroutine (and Start, before it launches the loop)
// calls it, so cycles never overlap.
func (r *Replica) advance() error {
	var t0 time.Time
	if r.mAdvance != nil {
		t0 = time.Now()
	}
	attached, err := r.advanceCycle()
	if r.mAdvance != nil {
		r.mAdvance.ObserveDuration(time.Since(t0))
	}
	r.attached(attached)
	return err
}

// attached runs the post-attach callback for tables the loop registered,
// once the visible LSN they are scanned at covers them. A read that
// fails there leaves the table's default statistics.
func (r *Replica) attached(tables []string) {
	if r.onAttach == nil {
		return
	}
	for _, table := range tables {
		r.onAttach(table)
	}
}

// pinStride is how many records of visible-LSN advance pass between
// version pins.
const pinStride = 256

// maybeRepin re-pins the replica's Page Store version floor when the
// visible LSN advanced a stride past the last pin. The pin keeps the
// version a lagging snapshot read needs alive on the stores, so it does
// not miss its snapshot and restart its statement.
func (r *Replica) maybeRepin(visible uint64) {
	if visible == 0 {
		return
	}
	if p := r.pinned.Load(); p != 0 && visible < p+pinStride {
		return
	}
	r.pinAll(visible)
}

// pinAll sends the version pin (or, with 0, the clear) to every Page
// Store, best effort.
func (r *Replica) pinAll(lsn uint64) {
	for _, node := range r.cfg.PageStores {
		r.cfg.Transport.Call(node, &cluster.VersionPinReq{
			Tenant: r.cfg.Tenant, Node: r.cfg.Node, LSN: lsn,
		})
	}
	if lsn > 0 {
		r.pinned.Store(lsn)
	}
}

// checkpointResync rebases the replica after log GC overran its
// detached tail: records in (tailed, truncated] are gone from the Log
// Store, but everything they did is applied and checkpointed on the
// Page Stores. The checkpoint's catalog (DDL the replica missed while
// detached) is merged into the engine; reads resume at its applied LSN
// immediately, and the stream resumes above it. A reader that meets a
// merged table before the raise, or one whose root is newer than the
// checkpoint, misses its snapshot and restarts above it.
func (r *Replica) checkpointResync(truncated uint64) {
	var ckpt uint64
	var tables []string
	var err error
	if r.cfg.LoadCheckpoint != nil {
		var meta *pstore.Meta
		if meta, err = r.cfg.LoadCheckpoint(); err == nil && meta != nil {
			var st engine.RecoveryStats
			if st, err = r.eng.RecoverFrom(meta, nil); err == nil {
				ckpt, tables = meta.AppliedLSN, st.Tables
			}
		}
	}
	r.resetTail(max(truncated, ckpt))
	// Everything at or below the checkpoint frontier is applied on every
	// Page Store, so reads may resume there right away.
	raise(&r.visible, ckpt)
	r.stats.ckptResyncs.Add(1)
	// load_err is the checkpoint load's or merge's error (the rebase then
	// fell back to a blind reset at the truncation watermark).
	r.cfg.Events.Record(obs.EventCheckpointResync,
		"%s: log GC overran detached tail (truncated=%d), rebased on checkpoint applied=%d load_err=%v",
		r.cfg.Name, truncated, ckpt, err)
	r.attached(tables)
}

// AwaitAbove implements engine.ReadView: the statement restart's wait
// after a read missed its snapshot at lsn. It advances nothing itself:
// it hands lsn to the loop, which resubscribes when its next advance
// does not pass it. The wait ends when the visible LSN passes lsn, when
// the replica has resubscribed and nothing is durable past lsn, or
// after 8 ticks.
func (r *Replica) AwaitAbove(lsn uint64) {
	seq := r.subSeq.Load()
	raise(&r.awaited, lsn)
	r.kickLoop()
	for deadline := time.Now().Add(8 * r.cfg.RefreshInterval); time.Now().Before(deadline); {
		if r.visible.Load() > lsn ||
			(r.subSeq.Load() != seq && r.subscribed.Load() && r.notified.Load() <= lsn) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// advanceCycle advances the visible LSN from the pending state, the
// pushed per-slice applied frontier and the pushed durable watermark,
// batch-invalidates cached pages the advance covered, and applies newly
// visible DDL. The pushed frontier needs no reachability guard: the
// master's SAL reports a slice applied only after every Page Store
// replica of it confirmed the apply. Returns tables attached this cycle
// (advance runs their post-attach callbacks).
func (r *Replica) advanceCycle() ([]string, error) {
	floor := r.notified.Load()
	r.mu.Lock()
	// Drop pending entries the Page Stores have confirmed applied.
	for sliceID, lsns := range r.slicePending {
		min, ok := r.frontier[sliceID]
		if !ok {
			continue
		}
		i := sort.Search(len(lsns), func(i int) bool { return lsns[i] > min })
		if i == 0 {
			continue
		}
		if i == len(lsns) {
			delete(r.slicePending, sliceID)
		} else {
			r.slicePending[sliceID] = lsns[i:]
		}
	}
	// The visible LSN is the largest durable prefix with no touched
	// slice still waiting for an apply: everything at or below it is
	// durable AND applied on every replica of every slice it touched.
	candidate := r.tailed
	if floor < candidate {
		candidate = floor
	}
	for _, lsns := range r.slicePending {
		if len(lsns) > 0 && lsns[0]-1 < candidate {
			candidate = lsns[0] - 1
		}
	}
	newVisible := r.visible.Load()
	if candidate > newVisible {
		newVisible = candidate
	}

	// Collect cached pages whose records became visible; they are
	// evicted in one batched pass (one shard lock per shard, not per
	// page) after r.mu drops, so the next read refetches the newer image
	// from the Page Stores. The floor — the highest now-visible record
	// touching the page — also blocks an older in-flight fetch from
	// (re)caching a stale image after this pass.
	var invPages, invFloors []uint64
	for pageID, lsns := range r.pagePending {
		i := sort.Search(len(lsns), func(i int) bool { return lsns[i] > newVisible })
		if i == 0 {
			continue
		}
		invPages = append(invPages, pageID)
		invFloors = append(invFloors, lsns[i-1])
		if i == len(lsns) {
			delete(r.pagePending, pageID)
		} else {
			r.pagePending[pageID] = lsns[i:]
		}
	}
	// Retire the lag-bytes queue below the new snapshot.
	for len(r.byteQ) > 0 && r.byteQ[0].lsn <= newVisible {
		r.pendingBytes -= uint64(r.byteQ[0].size)
		r.byteQ = r.byteQ[1:]
	}
	r.stats.lagBytes.Store(r.pendingBytes)
	maxTrx := r.maxTrx
	// DDL at or below the snapshot attaches now.
	var ddl []wal.Record
	for len(r.ddlQ) > 0 && r.ddlQ[0].LSN <= newVisible {
		ddl = append(ddl, r.ddlQ[0])
		r.ddlQ = r.ddlQ[1:]
	}
	r.mu.Unlock()

	if len(invPages) > 0 {
		r.eng.Pool().InvalidateBatch(invPages, invFloors)
		r.stats.pagesInvalidated.Add(uint64(len(invPages)))
	}
	// Transactions tailed from the log are committed on the master;
	// advance the ID allocator so their rows are visible to read views.
	r.eng.Txm().Advance(maxTrx)
	r.visible.Store(newVisible)
	r.maybeRepin(newVisible)
	attached, derr := r.applyDDL(ddl)
	if derr != nil {
		// Re-queue the batch so a transient failure cannot permanently
		// lose a table: the next cycle retries, and the merge skips
		// what this one registered.
		r.mu.Lock()
		r.ddlQ = append(ddl, r.ddlQ...)
		r.mu.Unlock()
	}
	return attached, derr
}

// resetTail repositions the tail at truncated, dropping buffered and
// pending state at or below it plus the whole page cache (we no longer
// know which pages the missed records touched). A no-op when the tail
// is already past truncated.
func (r *Replica) resetTail(truncated uint64) {
	r.mu.Lock()
	if truncated <= r.tailed {
		r.mu.Unlock()
		return
	}
	r.tailed = truncated
	for lsn := range r.buf {
		if lsn <= truncated {
			delete(r.buf, lsn)
		}
	}
	for sliceID, lsns := range r.slicePending {
		i := sort.Search(len(lsns), func(i int) bool { return lsns[i] > truncated })
		if i == len(lsns) {
			delete(r.slicePending, sliceID)
		} else if i > 0 {
			r.slicePending[sliceID] = lsns[i:]
		}
	}
	r.mu.Unlock()
	r.eng.Pool().Clear()
	r.stats.resyncs.Add(1)
}

// ingest merges a pushed batch into the tail buffer and consumes the
// contiguous prefix.
func (r *Replica) ingest(encoded []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := encoded
	for len(buf) > 0 {
		rec, n, err := wal.Decode(buf)
		if err != nil {
			break // torn frame; the watchdog's resubscribe re-reads
		}
		size := n
		buf = buf[n:]
		if rec.LSN <= r.tailed {
			continue
		}
		if _, ok := r.buf[rec.LSN]; ok {
			continue
		}
		r.buf[rec.LSN] = tailRec{rec: rec, size: size}
	}
	// Consume the contiguous prefix. LSNs are dense, so a gap means a
	// record a later frame (or a resubscribe's catch-up) still brings.
	for {
		tr, ok := r.buf[r.tailed+1]
		if !ok {
			break
		}
		delete(r.buf, r.tailed+1)
		r.tailed++
		// Accounted here (consume order = LSN order) so the lag-bytes
		// queue retires in order even when stores delivered records
		// out of order.
		r.byteQ = append(r.byteQ, lsnSize{lsn: tr.rec.LSN, size: tr.size})
		r.pendingBytes += uint64(tr.size)
		r.consume(tr.rec)
	}
}

// consume registers one in-order tailed record in the pending state.
// Caller holds r.mu.
func (r *Replica) consume(rec wal.Record) {
	r.stats.recordsTailed.Add(1)
	if rec.TrxID > r.maxTrx {
		r.maxTrx = rec.TrxID
	}
	if rec.Type == wal.TypeCatalog {
		r.ddlQ = append(r.ddlQ, rec)
		return
	}
	sliceID := r.SliceOf(rec.PageID)
	r.slicePending[sliceID] = append(r.slicePending[sliceID], rec.LSN)
	// Records are consumed in LSN order, so appends keep both sorted.
	r.pagePending[rec.PageID] = append(r.pagePending[rec.PageID], rec.LSN)
}

// applyDDL merges newly visible catalog records into the engine; each
// attaches its table or index at the root page it names, which was
// formatted before it and so is visible too. Returns the tables
// attached (their stats callbacks run later), also on error.
func (r *Replica) applyDDL(catalog []wal.Record) ([]string, error) {
	if len(catalog) == 0 {
		return nil, nil
	}
	st, err := r.eng.RecoverFrom(nil, catalog)
	r.stats.tablesAttached.Add(uint64(len(st.Tables) + st.Indexes))
	if err != nil {
		err = fmt.Errorf("replica: tailed catalog: %w", err)
	}
	return st.Tables, err
}

// Stats snapshots the replica's counters.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	tailed := r.tailed
	r.mu.Unlock()
	st := Stats{
		VisibleLSN:       r.visible.Load(),
		DurableLSN:       r.notified.Load(),
		TailedLSN:        tailed,
		LagBytes:         r.stats.lagBytes.Load(),
		Refreshes:        r.stats.refreshes.Load(),
		RecordsTailed:    r.stats.recordsTailed.Load(),
		PagesInvalidated: r.stats.pagesInvalidated.Load(),
		TablesAttached:   r.stats.tablesAttached.Load(),
		Resyncs:          r.stats.resyncs.Load(),
		StreamBatches:    r.stats.streamBatches.Load(),
		CkptResyncs:      r.stats.ckptResyncs.Load(),
		Subscribed:       r.subscribed.Load(),
	}
	if st.DurableLSN > st.VisibleLSN {
		st.LagRecords = st.DurableLSN - st.VisibleLSN
	}
	return st
}
