// Slice-partitioned, pipelined group-commit write path.
//
// In the paper, the frontend acknowledges a transaction as soon as its
// log records are durable in triplicate on Log Stores; Page Store
// application is asynchronous ("Log Stores ... Once all of the log
// records belonging to a transaction have been made durable, transaction
// completion can be acknowledged", §II). Slices advance independently —
// that is the core of the Log Store / Page Store separation — so the
// write path is partitioned by slice into lanes:
//
//   - Every lane owns a staging buffer, a sealer (flusher), a window
//     stream with its own in-flight budget, and per-Log-Store FIFO
//     append workers. Cold slices share the default lane (lane 0);
//     a hot slice — one whose EWMA share of the shared lane's traffic
//     crosses promoteShare — is promoted to a dedicated lane, so a slow
//     Page Store replica behind slice A can exhaust only A's lane
//     budget and never stalls the staging, sealing, or apply stage of
//     slice B.
//   - Write assigns the LSN under the lane's stage lock and returns it
//     to the caller without doing any I/O; transactions track their own
//     max LSN and commit with WaitDurable(txnMaxLSN) instead of a
//     global allocator snapshot.
//   - The durable watermark stays a global LSN prefix (a transaction's
//     records may span lanes): it advances to the LSN below the lowest
//     record any lane still has staged or in flight. Lane batches reach
//     each Log Store in per-lane FIFO order but interleave in LSN space
//     across lanes; the Log Stores fill these "holes" idempotently (see
//     logstore's pending-hole filter).
//   - Page Store application happens after durability, asynchronously:
//     each lane's dispatcher fans its windows out to per-slice apply
//     workers (shared across lanes, FIFO per slice) which write all
//     replicas in parallel. A slice lives in exactly one lane at a
//     time; promotion installs a fence LSN so the new lane's batches
//     apply only after the old lane's are done — per-slice LSN order,
//     which the Page Stores' idempotent-skip depends on, is preserved
//     across the handoff.
//   - Readers wait per page, not per slice: staging records a
//     page→highest-staged-LSN entry (pruned as applies land), and a
//     read blocks only until the slice's applied LSN covers the pages
//     it touches — with the usual single-atomic fast path when nothing
//     is pending anywhere.
//
// Failure model: a Log Store append error poisons the failing lane and
// freezes the durable watermark below the failed window (durFloor).
// Commits already acknowledged stay acknowledged; commits waiting at or
// above the failure point get the sticky error; records below it in
// healthy lanes still become durable and their commits succeed. New
// writes are rejected everywhere — recovery is Open's job.
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
	"taurus/internal/wal"
)

// DefaultMaxInFlightWindows bounds how many sealed windows may be in
// one lane's LOG stage (awaiting Log Store acknowledgement) at once.
const DefaultMaxInFlightWindows = 8

// DefaultApplyBacklogWindows bounds how many durable windows may be
// queued toward one lane's Page Store replicas before the lane's
// writers stall. The two budgets are separate on purpose: durability
// progress (the commit path) must never wait on apply progress.
const DefaultApplyBacklogWindows = 256

// DefaultMaxSliceLanes is the default number of dedicated lanes hot
// slices can be promoted into (besides the shared lane 0).
const DefaultMaxSliceLanes = 2

// Adaptive flush threshold bounds: each lane sizes its group-commit
// window from EWMAs of arrival rate and fsync latency (batch what
// arrives during one fsync), clamped to this range.
const (
	DefaultFlushThresholdMin = 16
	DefaultFlushThresholdMax = 1024
	initialFlushThreshold    = 64
	ewmaAlpha                = 0.3
)

// Promotion policy: a slice is promoted out of the shared lane when its
// EWMA share of the lane's sealed records crosses promoteShare (and a
// dedicated lane is free). Nothing is promoted before the lane has
// sealed promoteMinObserved records — the first trickle of traffic is
// too noisy to classify. Demotion is the inverse: a promoted slice's
// EWMA share of recent traffic (its lane's records against everything
// sealed since the last policy round) is seeded at promoteShare and
// decays while the slice is quiet; below demoteShare the slice hands
// back to the shared lane and its lane returns to the pool. The wide
// promoteShare/demoteShare gap is hysteresis: a slice bouncing around
// the promotion threshold never thrashes between lanes.
const (
	heatAlpha          = 0.4
	promoteShare       = 0.5
	promoteMinObserved = 32
	demoteShare        = 0.05
)

// Seal reasons for the per-lane SealsByReason counters.
const (
	SealThreshold = "threshold"
	SealDemand    = "demand"
)

// sliceBatch is one slice's share of a window: the concatenated record
// encoding, its LSN range, and the per-page max LSN (read waiters are
// page-granular).
type sliceBatch struct {
	enc     []byte
	minLSN  uint64
	maxLSN  uint64
	count   int
	pageMax map[uint64]uint64
}

// window is one sealed group-commit unit moving through a lane.
type window struct {
	lane   *lane
	minLSN uint64
	maxLSN uint64
	count  int
	log    []byte                 // combined encoding for Log Stores
	slices map[uint32]*sliceBatch // per-slice encodings for Page Stores

	logRemaining   atomic.Int32
	applyRemaining atomic.Int32
	// inApply marks a window handed to the apply stage (counted in its
	// lane's apply backlog).
	inApply bool
	// failed marks a window whose Log Store append errored (or that
	// drained through a poisoned lane without appending): it must never
	// advance the durable watermark.
	failed atomic.Bool

	// trace is the sampled context the window's appends and applies
	// propagate (the sal.window span's own context when one was opened);
	// span is that window span, ended when the window turns durable.
	// Zero/nil when no staged record belonged to a sampled statement.
	trace obs.TraceContext
	span  *obs.SpanHandle
}

// stage is one lane's open staging buffer.
type stage struct {
	log    []byte
	slices map[uint32]*sliceBatch
	count  int
	minLSN uint64
	maxLSN uint64
	// firstAt is when the first record was staged (set only with metrics
	// enabled); seal age = seal time − firstAt.
	firstAt time.Time
	// trace is adopted from the first sampled writer whose record landed
	// in this stage: group commit batches many transactions into one
	// window, so the window links to one sampled statement (enough to
	// show where ITS commit time went).
	trace obs.TraceContext
}

func newStage() *stage {
	return &stage{slices: make(map[uint32]*sliceBatch)}
}

// lane is one write lane: a staging buffer, flusher, window stream, and
// per-Log-Store append workers. Lane 0 is the shared (default) lane;
// the rest are dedicated lanes hot slices get promoted into.
type lane struct {
	id int
	s  *SAL

	stageMu   sync.Mutex
	stageCond *sync.Cond
	stg       *stage

	notify      chan struct{}
	flusherDone chan struct{}
	sem         chan struct{} // per-lane in-flight window budget
	nodeChs     []chan *window
	nodeWG      sync.WaitGroup
	applyCh     chan *window

	// pendingQ holds sealed windows not yet durably acknowledged, in
	// seal (= per-lane LSN) order. Guarded by SAL.durMu: sealing and
	// durable-watermark recomputation must observe it atomically.
	pendingQ []*window

	logInflight  atomic.Int64
	inflight     atomic.Int64 // sealed windows not yet durable
	applyBacklog atomic.Int64 // durable windows not yet fully applied
	poisoned     atomic.Bool

	// assignedSlice is the promoted slice for dedicated lanes (-1 when
	// unassigned, and always -1 for the shared lane).
	assignedSlice atomic.Int64

	// thresh is the lane's current flush threshold. Adaptive unless the
	// config pinned it.
	thresh atomic.Int64

	// EWMA state behind the adaptive threshold.
	ewmaMu        sync.Mutex
	arrivalPerSec float64
	fsyncSeconds  float64
	lastSeal      time.Time

	// Counters.
	windows        atomic.Uint64
	records        atomic.Uint64
	sealsThreshold atomic.Uint64
	sealsDemand    atomic.Uint64
}

// sliceProgress tracks one slice's replica set, lane assignment, and
// LSN frontier on the frontend side.
type sliceProgress struct {
	// lastStaged is the highest LSN ever staged for this slice (updated
	// under the owning lane's stage lock, so it is monotone).
	lastStaged atomic.Uint64
	// laneID is the slice's current write lane. Flipped only by
	// promotion, under the shared lane's stage lock.
	laneID atomic.Int32
	// fence is the promotion handoff barrier: batches with minLSN above
	// it (new-lane batches) apply only once the applied LSN reaches it
	// (all old-lane batches landed). 0 = no handoff pending.
	fence atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond
	applied uint64 // highest LSN applied on ALL replicas
	// pageStaged maps page → highest staged-but-not-yet-applied LSN;
	// entries are pruned as applies land, so a reader waits only for
	// the pages it actually touches.
	pageStaged map[uint64]uint64

	createOnce sync.Once
	nodes      []string
	createErr  error
}

func (sp *sliceProgress) appliedLSN() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.applied
}

// applyJob is one window's batch for one slice.
type applyJob struct {
	w       *window
	sliceID uint32
	batch   *sliceBatch
}

// SliceApplyStats is one slice's frontier, for the per-lane stats.
type SliceApplyStats struct {
	Slice      uint32
	StagedLSN  uint64
	AppliedLSN uint64
	// ApplyLag is StagedLSN - AppliedLSN: how far the slice's Page
	// Store replicas trail the frontend's staging.
	ApplyLag uint64
	// PagesTracked is the number of pages with staged-but-unapplied
	// records (the read-wait map's size).
	PagesTracked int
}

// LaneStats is one write lane's observable state.
type LaneStats struct {
	Lane int
	// Slice is the dedicated slice this lane was promoted for (-1 for
	// the shared lane or an unassigned dedicated lane).
	Slice          int64
	WindowsSealed  uint64
	RecordsFlushed uint64
	// SealsByReason splits WindowsSealed into threshold-full seals and
	// demand seals (commit/read waiters, Flush).
	SealsByReason map[string]uint64
	// FlushThreshold is the lane's current (adaptive) threshold;
	// ArrivalPerSec and FsyncMicros are the EWMAs behind it.
	FlushThreshold int
	ArrivalPerSec  float64
	FsyncMicros    float64
	// InFlightWindows is the lane's log-stage depth (sealed, awaiting
	// Log Store acks); ApplyBacklog is its apply-stage depth (durable,
	// not yet on every replica).
	InFlightWindows int64
	ApplyBacklog    int64
	Poisoned        bool
	// Slices reports the apply frontier of every slice currently
	// assigned to this lane.
	Slices []SliceApplyStats
}

// PipelineStats is a snapshot of the write-path counters.
type PipelineStats struct {
	// WindowsFlushed / RecordsFlushed total sealed group-commit windows
	// and the records they carried, across all lanes.
	WindowsFlushed uint64
	RecordsFlushed uint64
	// BackpressureStalls counts the times a writer or a flusher had to
	// wait because a staging buffer or an in-flight window budget was
	// full.
	BackpressureStalls uint64
	// CommitWaits counts WaitDurable calls that actually blocked;
	// ApplyWaits counts reads that blocked on a page's applied LSN.
	CommitWaits uint64
	ApplyWaits  uint64
	// InFlightWindows / PendingRecords are the current pipeline depth
	// (all lanes).
	InFlightWindows int64
	PendingRecords  int64
	// DurableLSN is the commit watermark; AllocatedLSN the last LSN
	// handed out.
	DurableLSN   uint64
	AllocatedLSN uint64
	// Promotions counts slices moved from the shared lane to a
	// dedicated one; Demotions counts cooled slices handed back.
	Promotions uint64
	Demotions  uint64
	// FrontierNotifies counts frontier relays sent to Log Stores (the
	// push-stream fan-out input); FrontierWatchers is the number of
	// embedded replicas holding a frontier watch.
	FrontierNotifies uint64
	FrontierWatchers int
	// Lanes is the per-lane breakdown (windows sealed, seals by reason,
	// adaptive threshold, apply lag per slice).
	Lanes []LaneStats
}

type pipelineCounters struct {
	backpressureStalls atomic.Uint64
	commitWaits        atomic.Uint64
	applyWaits         atomic.Uint64
	promotions         atomic.Uint64
	demotions          atomic.Uint64
	frontierNotifies   atomic.Uint64
}

// startPipeline launches every lane's flusher and per-Log-Store node
// workers, plus the shared apply-worker plumbing.
func (s *SAL) startPipeline() {
	s.quit = make(chan struct{})
	s.durCond = sync.NewCond(&s.durMu)
	s.flushCond = sync.NewCond(&s.flushMu)
	s.applyWorkers = make(map[uint32]*sliceQueue)
	s.applyDone = make(chan struct{})

	nLanes := 1 + s.cfg.MaxSliceLanes
	s.lanes = make([]*lane, nLanes)
	for i := range s.lanes {
		ln := &lane{id: i, s: s}
		ln.stageCond = sync.NewCond(&ln.stageMu)
		ln.stg = newStage()
		ln.notify = make(chan struct{}, 1)
		ln.flusherDone = make(chan struct{})
		ln.sem = make(chan struct{}, s.cfg.MaxInFlightWindows)
		ln.applyCh = make(chan *window, s.cfg.MaxInFlightWindows)
		ln.assignedSlice.Store(-1)
		ln.thresh.Store(int64(s.initialThreshold()))
		ln.nodeChs = make([]chan *window, len(s.cfg.LogStores))
		for j := range ln.nodeChs {
			ln.nodeChs[j] = make(chan *window, s.cfg.MaxInFlightWindows)
			ln.nodeWG.Add(1)
			go ln.logNodeWorker(s.cfg.LogStores[j], ln.nodeChs[j])
		}
		s.lanes[i] = ln
		s.dispatchWG.Add(1)
		go ln.applyDispatcher()
		go ln.flusher()
		go func(ln *lane) {
			// applyCh has two kinds of senders — node workers (normal
			// case) and the flusher (no Log Stores configured) — so it
			// closes only after both are done.
			<-ln.flusherDone
			ln.nodeWG.Wait()
			close(ln.applyCh)
		}(ln)
	}
	s.laneHeat = make(map[uint32]float64)
	s.dedHeat = make(map[uint32]float64)
	s.freeLanes = append([]*lane(nil), s.lanes[1:]...)
	s.lastLaneRecords = make([]uint64, nLanes)
	s.notifierDone = make(chan struct{})
	go s.lsnNotifier()
	go func() {
		// Per-slice apply workers are shared across lanes; their
		// channels close only after every lane's dispatcher is done.
		s.dispatchWG.Wait()
		s.applyMu.Lock()
		for _, q := range s.applyWorkers {
			q.close()
		}
		s.applyMu.Unlock()
		s.sliceWG.Wait()
		close(s.applyDone)
	}()
}

func (s *SAL) initialThreshold() int {
	if s.cfg.FlushThreshold > 0 {
		return s.cfg.FlushThreshold
	}
	t := initialFlushThreshold
	if t < s.cfg.FlushThresholdMin {
		t = s.cfg.FlushThresholdMin
	}
	if t > s.cfg.FlushThresholdMax {
		t = s.cfg.FlushThresholdMax
	}
	return t
}

// kick nudges a lane's flusher (non-blocking; one pending kick is
// enough).
func (ln *lane) kick() {
	select {
	case ln.notify <- struct{}{}:
	default:
	}
}

// kickAll nudges every lane's flusher.
func (s *SAL) kickAll() {
	for _, ln := range s.lanes {
		ln.kick()
	}
}

// laneFor returns the slice's current write lane (the shared lane for
// catalog records, which have no slice).
func (s *SAL) laneFor(sp *sliceProgress) *lane {
	if sp == nil {
		return s.lanes[0]
	}
	return s.lanes[sp.laneID.Load()]
}

// sticky returns the pipeline's poisoned state, if any.
func (s *SAL) sticky() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// poison records the first pipeline error, marks the failing lane, and
// wakes every waiter so it can observe the error. The failing lane
// keeps draining windows (without I/O) so Flush and Close terminate;
// healthy lanes keep appending and applying what was already staged,
// but new writes are rejected everywhere.
func (s *SAL) poison(ln *lane, err error) {
	ln.poisoned.Store(true)
	s.errMu.Lock()
	first := s.err == nil
	if first {
		s.err = err
	}
	s.errMu.Unlock()
	if first {
		s.cfg.Events.Record(obs.EventPoison, "lane %d: %v", ln.id, err)
	}
	s.broadcastAll()
}

// broadcastAll wakes every parked waiter (commit, flush, backpressured
// writer, reader) so it can re-check its condition.
func (s *SAL) broadcastAll() {
	s.durMu.Lock()
	s.durCond.Broadcast()
	s.durMu.Unlock()
	s.flushMu.Lock()
	s.flushCond.Broadcast()
	s.flushMu.Unlock()
	for _, ln := range s.lanes {
		ln.stageMu.Lock()
		ln.stageCond.Broadcast()
		ln.stageMu.Unlock()
	}
	s.slMu.Lock()
	for _, sp := range s.sliceProg {
		sp.mu.Lock()
		sp.cond.Broadcast()
		sp.mu.Unlock()
	}
	s.slMu.Unlock()
}

// progress returns (creating if needed) the slice's progress tracker.
func (s *SAL) progress(sliceID uint32) *sliceProgress {
	s.slMu.Lock()
	defer s.slMu.Unlock()
	sp, ok := s.sliceProg[sliceID]
	if !ok {
		sp = &sliceProgress{pageStaged: make(map[uint64]uint64)}
		sp.cond = sync.NewCond(&sp.mu)
		s.sliceProg[sliceID] = sp
	}
	return sp
}

// progressIfExists returns the slice's tracker without creating one.
func (s *SAL) progressIfExists(sliceID uint32) *sliceProgress {
	s.slMu.Lock()
	defer s.slMu.Unlock()
	return s.sliceProg[sliceID]
}

// placement returns the slice's replica set, provisioning the slice on
// its Page Stores exactly once. Replicas are chosen round-robin by slice
// id, so consecutive slices land on different Page Stores and batch
// reads fan out (§VI-2).
func (s *SAL) placement(sliceID uint32) ([]string, error) {
	sp := s.progress(sliceID)
	sp.createOnce.Do(func() {
		nodes := ReplicaSet(s.cfg.PageStores, s.cfg.ReplicationFactor, sliceID)
		for _, node := range nodes {
			if _, err := s.cfg.Transport.Call(node, &cluster.CreateSliceReq{
				Tenant: s.cfg.Tenant, SliceID: sliceID,
			}); err != nil {
				sp.createErr = fmt.Errorf("sal: creating slice %d on %s: %w", sliceID, node, err)
				return
			}
		}
		sp.nodes = nodes
	})
	return sp.nodes, sp.createErr
}

// SetTxnTrace registers a sampled statement's trace context under its
// transaction ID: records the transaction writes (which carry only the
// TrxID) stage into lanes, and the lane's window adopts the context so
// the statement's trace reaches the Log Store appends and Page Store
// applies it rode in. Pair with ClearTxnTrace when the statement ends.
func (s *SAL) SetTxnTrace(trxID uint64, tc obs.TraceContext) {
	if trxID == 0 || !tc.Valid() {
		return
	}
	s.traceMu.Lock()
	if s.txnTraces == nil {
		s.txnTraces = make(map[uint64]obs.TraceContext)
	}
	if _, ok := s.txnTraces[trxID]; !ok {
		s.traceCount.Add(1)
	}
	s.txnTraces[trxID] = tc
	s.traceMu.Unlock()
}

// ClearTxnTrace drops a registration made by SetTxnTrace.
func (s *SAL) ClearTxnTrace(trxID uint64) {
	if trxID == 0 {
		return
	}
	s.traceMu.Lock()
	if _, ok := s.txnTraces[trxID]; ok {
		delete(s.txnTraces, trxID)
		s.traceCount.Add(-1)
	}
	s.traceMu.Unlock()
}

// txnTrace looks a record's transaction up in the sampled set. The
// no-traces fast path is one atomic load.
func (s *SAL) txnTrace(trxID uint64) obs.TraceContext {
	if trxID == 0 || s.traceCount.Load() == 0 {
		return obs.TraceContext{}
	}
	s.traceMu.Lock()
	tc := s.txnTraces[trxID]
	s.traceMu.Unlock()
	return tc
}

// Write assigns an LSN to rec, appends it to its slice's lane, and
// returns the LSN — the caller (a transaction) records it as its commit
// watermark. No I/O happens on this path: durability is a separate wait
// (WaitDurable), and Page Store application is asynchronous. The caller
// applies the record to its own cached page after Write returns.
//
// Catalog records (TypeCatalog) are durability-only: they go to the Log
// Stores so the frontend's data dictionary can be rebuilt on restart,
// but they never touch a slice or a Page Store. They always ride the
// shared lane.
func (s *SAL) Write(rec *wal.Record) (uint64, error) {
	var sp *sliceProgress
	var sliceID uint32
	if rec.Type != wal.TypeCatalog {
		sliceID = s.SliceOf(rec.PageID)
		sp = s.progress(sliceID)
	}
	ln := s.laneFor(sp)
	var stallStart time.Time
	ln.stageMu.Lock()
	for {
		// Promotion may reassign the slice while we wait; follow it.
		if cur := s.laneFor(sp); cur != ln {
			ln.stageMu.Unlock()
			ln = cur
			ln.stageMu.Lock()
			continue
		}
		if err := s.sticky(); err != nil {
			ln.stageMu.Unlock()
			return 0, err
		}
		if s.isClosed() {
			ln.stageMu.Unlock()
			return 0, errClosed
		}
		// Backpressure: the lane's staging buffer holds at most two
		// flush windows' worth of records, and the lane's apply backlog
		// must be under its bound. Both stalls happen BEFORE the record
		// is staged: an unstaged record cannot pin the durable
		// watermark, so a lane throttled by its slice's slow replica
		// never delays other lanes' commits.
		if ln.stg.count < 2*int(ln.thresh.Load()) &&
			ln.applyBacklog.Load() < int64(s.cfg.ApplyBacklogWindows) {
			break
		}
		s.counters.backpressureStalls.Add(1)
		if s.m.enabled && stallStart.IsZero() {
			stallStart = time.Now()
		}
		ln.kick()
		ln.stageCond.Wait()
	}
	if !stallStart.IsZero() {
		s.m.stageWait.ObserveDuration(time.Since(stallStart))
	}
	// The LSN is allocated under the lane's stage lock so records enter
	// each lane's buffer in LSN order — the Page Stores' idempotent-skip
	// depends on in-order per-slice batches, and the durable-watermark
	// recomputation depends on allocation and staging being atomic.
	lsn := s.lsn.Add(1)
	rec.LSN = lsn
	if sp != nil {
		sb, ok := ln.stg.slices[sliceID]
		if !ok {
			sb = &sliceBatch{pageMax: make(map[uint64]uint64)}
			ln.stg.slices[sliceID] = sb
		}
		sb.enc = rec.Encode(sb.enc)
		if sb.minLSN == 0 {
			sb.minLSN = lsn
		}
		sb.maxLSN = lsn
		sb.count++
		sb.pageMax[rec.PageID] = lsn
		sp.lastStaged.Store(lsn)
		sp.mu.Lock()
		sp.pageStaged[rec.PageID] = lsn
		sp.mu.Unlock()
	}
	ln.stg.log = rec.Encode(ln.stg.log)
	if !ln.stg.trace.Valid() {
		if tc := s.txnTrace(rec.TrxID); tc.Valid() {
			ln.stg.trace = tc
		}
	}
	if ln.stg.count == 0 {
		ln.stg.minLSN = lsn
		if s.m.enabled {
			ln.stg.firstAt = time.Now()
		}
	}
	ln.stg.count++
	ln.stg.maxLSN = lsn
	s.pending.Add(1)
	full := ln.stg.count >= int(ln.thresh.Load())
	ln.stageMu.Unlock()
	if full {
		ln.kick()
	}
	return lsn, nil
}

// seal swaps the lane's staging buffer for a fresh one and registers
// the sealed window as durability-pending, atomically with respect to
// the durable-watermark recomputation (both under durMu). Returns nil
// if nothing is staged.
func (s *SAL) seal(ln *lane) *window {
	s.durMu.Lock()
	ln.stageMu.Lock()
	if ln.stg.count == 0 {
		ln.stageMu.Unlock()
		s.durMu.Unlock()
		return nil
	}
	w := &window{
		lane:   ln,
		minLSN: ln.stg.minLSN,
		maxLSN: ln.stg.maxLSN,
		count:  ln.stg.count,
		log:    ln.stg.log,
		slices: ln.stg.slices,
	}
	if tc := ln.stg.trace; tc.Valid() {
		w.span = s.cfg.Tracer.StartSpan(tc, "sal.window")
		w.span.Annotate("lane=%d recs=%d lsn=[%d,%d]", ln.id, w.count, w.minLSN, w.maxLSN)
		if w.span != nil {
			w.trace = w.span.Context()
		} else {
			// No collector on this node: still propagate the caller's
			// context so the storage-side spans attach to the statement.
			w.trace = tc
		}
	}
	if !ln.stg.firstAt.IsZero() {
		s.m.seal.ObserveDuration(time.Since(ln.stg.firstAt))
	}
	ln.stg = newStage()
	ln.stageCond.Broadcast() // release backpressured writers
	ln.stageMu.Unlock()
	ln.pendingQ = append(ln.pendingQ, w)
	s.durMu.Unlock()
	return w
}

// flusher seals the lane's windows on demand (threshold reached, a
// commit or read waiter kicked, or Flush) and launches them into the
// lane's pipeline. The shared lane's flusher additionally runs the
// hot-slice promotion policy after each seal.
func (ln *lane) flusher() {
	s := ln.s
	defer func() {
		for _, ch := range ln.nodeChs {
			close(ch)
		}
		close(ln.flusherDone)
	}()
	for {
		select {
		case <-s.quit:
			return
		case <-ln.notify:
		}
		for {
			// Group-commit batching: a sub-threshold window is sealed
			// only when no window of this lane is in the Log Store
			// stage, so records arriving during an fsync accumulate
			// into ONE next window instead of each paying a serial
			// fsync. Threshold-full windows pipeline up to the lane's
			// in-flight budget regardless.
			ln.stageMu.Lock()
			count := ln.stg.count
			ln.stageMu.Unlock()
			threshold := int(ln.thresh.Load())
			if count < threshold && ln.logInflight.Load() > 0 {
				break // re-kicked when the in-flight window turns durable
			}
			w := s.seal(ln)
			if w == nil {
				break
			}
			if w.count >= threshold {
				ln.sealsThreshold.Add(1)
				s.cfg.Events.Record(obs.EventWindowSeal, "lane %d: %s, %d recs, lsn [%d,%d]",
					ln.id, SealThreshold, w.count, w.minLSN, w.maxLSN)
			} else {
				ln.sealsDemand.Add(1)
				s.cfg.Events.Record(obs.EventWindowSeal, "lane %d: %s, %d recs, lsn [%d,%d]",
					ln.id, SealDemand, w.count, w.minLSN, w.maxLSN)
			}
			ln.observeArrival(w.count)
			if ln.id == 0 {
				s.maybePromote(w)
			}
			// Bounded per-lane in-flight budget: block (and count the
			// stall) when this lane's pipeline is full.
			select {
			case ln.sem <- struct{}{}:
			default:
				s.counters.backpressureStalls.Add(1)
				ln.sem <- struct{}{}
			}
			ln.inflight.Add(1)
			ln.windows.Add(1)
			ln.records.Add(uint64(w.count))
			w.applyRemaining.Store(int32(len(w.slices)))
			if len(ln.nodeChs) == 0 {
				// No Log Stores configured: the window is durable by
				// definition the moment it is sealed.
				ln.windowDurable(w)
				continue
			}
			ln.logInflight.Add(1)
			w.logRemaining.Store(int32(len(ln.nodeChs)))
			for _, ch := range ln.nodeChs {
				ch <- w
			}
		}
	}
}

// observeArrival feeds the lane's arrival-rate EWMA from a sealed
// window (flusher goroutine only writes lastSeal).
func (ln *lane) observeArrival(count int) {
	now := time.Now()
	ln.ewmaMu.Lock()
	defer ln.ewmaMu.Unlock()
	if !ln.lastSeal.IsZero() {
		if dt := now.Sub(ln.lastSeal).Seconds(); dt > 0 {
			rate := float64(count) / dt
			if ln.arrivalPerSec == 0 {
				ln.arrivalPerSec = rate
			} else {
				ln.arrivalPerSec = ewmaAlpha*rate + (1-ewmaAlpha)*ln.arrivalPerSec
			}
		}
	}
	ln.lastSeal = now
}

// observeFsync feeds the lane's fsync-latency EWMA from one Log Store
// append's measured SERVICE time — the duration of the Call itself,
// not seal-to-last-ack, which under a loaded pipeline would include
// queueing behind earlier windows and feed the threshold back into
// itself — and resizes the lane's flush threshold: batch roughly what
// arrives during one fsync, clamped to the configured bounds. A pinned
// threshold (Config.FlushThreshold) disables resizing.
func (ln *lane) observeFsync(lat float64) {
	s := ln.s
	ln.ewmaMu.Lock()
	defer ln.ewmaMu.Unlock()
	if ln.fsyncSeconds == 0 {
		ln.fsyncSeconds = lat
	} else {
		ln.fsyncSeconds = ewmaAlpha*lat + (1-ewmaAlpha)*ln.fsyncSeconds
	}
	if s.cfg.FlushThreshold > 0 {
		return // pinned
	}
	t := int(ln.arrivalPerSec * ln.fsyncSeconds)
	if t < s.cfg.FlushThresholdMin {
		t = s.cfg.FlushThresholdMin
	}
	if t > s.cfg.FlushThresholdMax {
		t = s.cfg.FlushThresholdMax
	}
	ln.thresh.Store(int64(t))
}

// maybePromote runs the hot-slice promotion AND demotion policy on a
// window the shared lane just sealed (shared-lane flusher goroutine
// only): each shared-lane slice's share of the window feeds a warming
// EWMA, each promoted slice's share of everything sealed since the last
// round feeds a cooling EWMA, and slices cross between the shared lane
// and the dedicated pool at the promoteShare/demoteShare thresholds.
func (s *SAL) maybePromote(w *window) {
	if len(s.lanes) <= 1 || w.count == 0 {
		return
	}
	s.heatObserved += w.count
	// Records sealed anywhere since the last policy round put this
	// window's share in context and drive the promoted slices' cooling.
	total := w.count
	deltas := make([]int, len(s.lanes))
	for i := 1; i < len(s.lanes); i++ {
		rec := s.lanes[i].records.Load()
		deltas[i] = int(rec - s.lastLaneRecords[i])
		s.lastLaneRecords[i] = rec
		total += deltas[i]
	}
	s.maybeDemote(deltas, total)
	for id := range s.laneHeat {
		if _, inWindow := w.slices[id]; !inWindow {
			s.laneHeat[id] *= 1 - heatAlpha
			if s.laneHeat[id] < 0.02 {
				delete(s.laneHeat, id)
			}
		}
	}
	hottest := uint32(0)
	best := 0.0
	for id, sb := range w.slices {
		if s.progress(id).laneID.Load() != 0 {
			// Already promoted: records staged in the shared lane just
			// before the flip can still appear in one more shared
			// window. Re-promoting would overwrite the slice's pending
			// handoff fence and break its apply order.
			delete(s.laneHeat, id)
			continue
		}
		share := float64(sb.count) / float64(w.count)
		h := share // first observation seeds the EWMA
		if old, ok := s.laneHeat[id]; ok {
			h = (1-heatAlpha)*old + heatAlpha*share
		}
		s.laneHeat[id] = h
		if h > best {
			best, hottest = h, id
		}
	}
	if best == 0 {
		return
	}
	if best < promoteShare || s.heatObserved < promoteMinObserved || len(s.freeLanes) == 0 {
		return
	}
	if s.promote(hottest, s.freeLanes[0]) {
		s.freeLanes = s.freeLanes[1:]
		delete(s.laneHeat, hottest)
		// Seed the cooling EWMA at the promotion threshold: the slice
		// must actually cool before it can be demoted (hysteresis).
		s.dedHeat[hottest] = promoteShare
	}
}

// maybeDemote cools every promoted slice's heat by its share of the
// traffic sealed since the last policy round and hands slices whose
// EWMA fell below demoteShare back to the shared lane, freeing their
// lanes for the next hot slice.
func (s *SAL) maybeDemote(deltas []int, total int) {
	for i := 1; i < len(s.lanes); i++ {
		ln := s.lanes[i]
		assigned := ln.assignedSlice.Load()
		if assigned < 0 || ln.poisoned.Load() {
			continue
		}
		sliceID := uint32(assigned)
		share := float64(deltas[i]) / float64(total)
		h, ok := s.dedHeat[sliceID]
		if !ok {
			h = promoteShare
		}
		h = (1-heatAlpha)*h + heatAlpha*share
		s.dedHeat[sliceID] = h
		if h >= demoteShare {
			continue
		}
		if s.demote(sliceID, ln) {
			delete(s.dedHeat, sliceID)
		}
	}
}

// promote moves a slice from the shared lane to a dedicated one. Under
// the shared lane's stage lock: every record already staged for the
// slice is at or below the fence (lastStaged), and every record written
// after the flip allocates its LSN in the new lane, strictly above it.
// The slice's apply worker holds back new-lane batches until the
// applied LSN reaches the fence, preserving per-slice apply order
// across the handoff.
func (s *SAL) promote(sliceID uint32, target *lane) bool {
	sp := s.progress(sliceID)
	shared := s.lanes[0]
	shared.stageMu.Lock()
	if sp.laneID.Load() != 0 || sp.fence.Load() != 0 {
		// Already promoted, or a previous handoff (a demotion's fence)
		// is still applying: a second flip now would clobber the
		// pending fence and break the slice's apply order. The policy
		// retries on a later round.
		shared.stageMu.Unlock()
		return false
	}
	if fence := sp.lastStaged.Load(); fence > 0 {
		sp.fence.Store(fence)
	}
	sp.laneID.Store(int32(target.id))
	shared.stageMu.Unlock()
	target.assignedSlice.Store(int64(sliceID))
	s.counters.promotions.Add(1)
	s.cfg.Events.Record(obs.EventLanePromote, "slice %d -> lane %d, fence %d",
		sliceID, target.id, sp.fence.Load())
	target.kick()
	return true
}

// demote hands a cooled slice back to the shared lane through the same
// fence machinery promotion uses, mirrored: under the dedicated lane's
// stage lock, everything already staged for the slice is at or below
// the fence, and every later record allocates in the shared lane
// strictly above it — the slice's apply worker holds the shared-lane
// batches until the dedicated lane's have all landed. The freed lane
// returns to the pool for the next hot slice.
func (s *SAL) demote(sliceID uint32, ln *lane) bool {
	sp := s.progress(sliceID)
	if sp.fence.Load() != 0 {
		return false // promotion handoff still applying; retry later
	}
	ln.stageMu.Lock()
	if sp.laneID.Load() != int32(ln.id) {
		ln.stageMu.Unlock()
		return false
	}
	if fence := sp.lastStaged.Load(); fence > 0 {
		sp.fence.Store(fence)
	}
	sp.laneID.Store(0)
	ln.stageMu.Unlock()
	ln.assignedSlice.Store(-1)
	s.freeLanes = append(s.freeLanes, ln)
	s.counters.demotions.Add(1)
	s.cfg.Events.Record(obs.EventLaneDemote, "slice %d: lane %d -> shared, fence %d",
		sliceID, ln.id, sp.fence.Load())
	// Writers parked on the dedicated lane's backpressure follow the
	// slice to the shared lane once woken.
	ln.stageMu.Lock()
	ln.stageCond.Broadcast()
	ln.stageMu.Unlock()
	return true
}

// logNodeWorker is one Log Store's FIFO append stream for one lane.
// Sequential calls per (lane, node) keep the lane's batches in LSN
// order on that node; different nodes (and different lanes) run in
// parallel, and node A can be appending window N+1 while node B is
// still on window N.
func (ln *lane) logNodeWorker(node string, ch chan *window) {
	s := ln.s
	defer ln.nodeWG.Done()
	for w := range ch {
		if ln.poisoned.Load() {
			// Draining a poisoned lane: nothing past the failure may be
			// acknowledged.
			w.failed.Store(true)
		} else {
			t0 := time.Now()
			_, err := cluster.CallTraced(s.cfg.Transport, w.trace, node, &cluster.LogAppendReq{
				Tenant: s.cfg.Tenant, Recs: w.log,
			})
			if err == nil {
				// The Call's own duration is the append service time
				// (network + logstore group-commit fsync) — measured
				// here rather than seal-to-last-ack so pipeline
				// queueing can't feed the adaptive threshold back into
				// itself.
				d := time.Since(t0)
				ln.observeFsync(d.Seconds())
				s.m.append.ObserveDuration(d)
			} else {
				w.failed.Store(true)
				// Freeze the watermark below this window BEFORE the
				// sticky error becomes visible, so a healthy-lane
				// waiter that wakes on the poison broadcast can tell
				// whether its LSN lies below the failure point (still
				// satisfiable) or not.
				s.durMu.Lock()
				if s.durFloor == 0 || w.minLSN < s.durFloor {
					s.durFloor = w.minLSN
				}
				s.durMu.Unlock()
				s.poison(ln, fmt.Errorf("sal: log store %s append: %w", node, err))
			}
		}
		if w.logRemaining.Add(-1) == 0 {
			// Last acknowledgement for this window. Per-lane-per-node
			// FIFO means window N's last ack strictly precedes window
			// N+1's, so the lane's windows turn durable (and reach the
			// apply stage) in order.
			ln.logInflight.Add(-1)
			ln.windowDurable(w)
			ln.kick() // release any deferred sub-threshold seal
		}
	}
}

// windowDurable retires the window from the durability-pending queue,
// recomputes the global durable watermark, releases the lane's
// log-stage budget slot, and hands the window to the apply stage. A
// failed window instead freezes the watermark below its first record:
// those records (and anything above them) were never acknowledged.
func (ln *lane) windowDurable(w *window) {
	s := ln.s
	s.durMu.Lock()
	for i, pw := range ln.pendingQ {
		if pw == w {
			ln.pendingQ = append(ln.pendingQ[:i], ln.pendingQ[i+1:]...)
			break
		}
	}
	if w.failed.Load() {
		if s.durFloor == 0 || w.minLSN < s.durFloor {
			s.durFloor = w.minLSN
		}
	} else {
		s.recomputeDurableLocked()
	}
	s.durCond.Broadcast()
	s.durMu.Unlock()
	// The window span covers seal → last Log Store acknowledgement (the
	// durability critical path); applies are separate child spans.
	w.span.End()
	// The log-stage budget frees at durability, NOT after apply:
	// durability (the commit path) never queues behind a slow replica.
	ln.inflight.Add(-1)
	<-ln.sem
	if w.failed.Load() || len(w.slices) == 0 {
		// Failed windows must not reach the Page Stores; catalog-only
		// windows have nothing to apply.
		s.windowComplete(w)
		return
	}
	ln.applyBacklog.Add(1)
	w.inApply = true
	ln.applyCh <- w
}

// recomputeDurableLocked advances the durable watermark to the LSN just
// below the lowest record any lane still holds staged or in flight
// (durFloor-capped once a window has failed). Caller holds durMu; the
// LSN snapshot is taken before inspecting the lanes so a concurrent
// allocation (which happens under its lane's stage lock, atomically
// with staging) can never be skipped over.
func (s *SAL) recomputeDurableLocked() {
	snap := s.lsn.Load()
	min := uint64(math.MaxUint64)
	for _, ln := range s.lanes {
		if fp := ln.firstPendingLocked(); fp < min {
			min = fp
		}
	}
	d := snap
	if min != math.MaxUint64 {
		d = min - 1
	}
	if s.durFloor > 0 && d >= s.durFloor {
		d = s.durFloor - 1
	}
	if d > s.durable {
		s.durable = d
		s.durableAtomic.Store(d)
	}
}

// firstPendingLocked returns the lowest LSN the lane still holds staged
// or sealed-but-unacknowledged (MaxUint64 when idle). Caller holds
// durMu (pendingQ); the stage is inspected under its own lock.
func (ln *lane) firstPendingLocked() uint64 {
	if len(ln.pendingQ) > 0 {
		return ln.pendingQ[0].minLSN
	}
	ln.stageMu.Lock()
	defer ln.stageMu.Unlock()
	if ln.stg.count > 0 {
		return ln.stg.minLSN
	}
	return math.MaxUint64
}

// sliceQueue is one slice's unbounded apply-job queue. Unbounded on
// purpose: the apply stage's backpressure is the per-lane apply-backlog
// bound applied to writers before they stage, so enqueueing here (from
// the durability path) must never block.
type sliceQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []applyJob
	closed bool
}

func newSliceQueue() *sliceQueue {
	q := &sliceQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *sliceQueue) push(job applyJob) {
	q.mu.Lock()
	q.jobs = append(q.jobs, job)
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks for the next job; ok=false once the queue is closed AND
// drained.
func (q *sliceQueue) pop() (applyJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 {
		return applyJob{}, false
	}
	job := q.jobs[0]
	q.jobs = q.jobs[1:]
	return job, true
}

func (q *sliceQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// applyDispatcher fans the lane's durable windows out to the shared
// per-slice apply workers. The lane receives its windows in durable
// (per-lane LSN) order and each slice lives in one lane at a time
// (promotion fences the handoff), so each slice's batches reach its
// worker in LSN order.
//
// Application additionally waits for the GLOBAL durable watermark to
// cover the window: a lane-durable window may still have lower-LSN
// sibling records in another lane's unacknowledged window, and applying
// it early would let a crash-time Page Store checkpoint capture records
// whose siblings were lost (half a multi-page operation). The watermark
// advances at fsync speed — the log stage never waits on applies — so
// this gate costs at most cross-lane fsync skew, never a slow replica's
// latency. On a poisoned pipeline the gate can never be satisfied for
// uncovered windows; they drain without applying.
func (ln *lane) applyDispatcher() {
	s := ln.s
	defer s.dispatchWG.Done()
	for w := range ln.applyCh {
		s.durMu.Lock()
		for s.durable < w.maxLSN && s.sticky() == nil {
			// Another lane may be sitting on a sub-threshold stage with
			// lower LSNs; nudge every flusher like any durability
			// waiter would.
			s.kickAll()
			s.durCond.Wait()
		}
		covered := s.durable >= w.maxLSN
		s.durMu.Unlock()
		if !covered {
			if w.applyRemaining.Swap(0) > 0 {
				s.windowComplete(w)
			}
			continue
		}
		for sliceID, batch := range w.slices {
			s.sliceWorker(sliceID).push(applyJob{w: w, sliceID: sliceID, batch: batch})
		}
	}
}

// sliceWorker returns (creating if needed) the slice's apply worker
// queue. Workers are shared across lanes.
func (s *SAL) sliceWorker(sliceID uint32) *sliceQueue {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	q, ok := s.applyWorkers[sliceID]
	if !ok {
		q = newSliceQueue()
		s.applyWorkers[sliceID] = q
		s.sliceWG.Add(1)
		go s.sliceApplyWorker(sliceID, q)
	}
	return q
}

// sliceApplyWorker applies one slice's batches to all of its replicas,
// replicas in parallel, batches in LSN order. After a batch lands on
// every replica the slice's applied watermark advances, its pages'
// staged entries are pruned, and blocked readers wake. Around a
// promotion, batches from the new lane are stashed until the applied
// LSN reaches the handoff fence (all old-lane batches landed).
func (s *SAL) sliceApplyWorker(sliceID uint32, q *sliceQueue) {
	defer s.sliceWG.Done()
	sp := s.progress(sliceID)
	var stash []applyJob
	drainStash := func() {
		sort.Slice(stash, func(i, j int) bool { return stash[i].batch.minLSN < stash[j].batch.minLSN })
		for _, st := range stash {
			s.applyBatch(sp, sliceID, st)
		}
		stash = nil
	}
	for {
		job, ok := q.pop()
		if !ok {
			break
		}
		if fence := sp.fence.Load(); fence > 0 && job.batch.minLSN > fence &&
			sp.appliedLSN() < fence && !job.w.lane.poisoned.Load() {
			stash = append(stash, job)
			continue
		}
		s.applyBatch(sp, sliceID, job)
		if len(stash) > 0 {
			if fence := sp.fence.Load(); fence == 0 || sp.appliedLSN() >= fence || job.w.lane.poisoned.Load() {
				drainStash()
			}
		}
		if fence := sp.fence.Load(); fence > 0 && sp.appliedLSN() >= fence {
			sp.fence.Store(0)
		}
	}
	drainStash() // close/poison path: complete anything still held
}

// applyBatch writes one batch to every replica of the slice (replicas
// in parallel) and advances the slice's applied frontier. Batches of a
// poisoned lane drain without I/O.
func (s *SAL) applyBatch(sp *sliceProgress, sliceID uint32, job applyJob) {
	ln := job.w.lane
	if !ln.poisoned.Load() {
		nodes, err := s.placement(sliceID)
		if err != nil {
			s.poison(ln, err)
		} else {
			var t0 time.Time
			if s.m.enabled {
				t0 = time.Now()
			}
			// The per-slice apply fan-out is a child of the window it came
			// from; each replica write is an rpc span under it.
			applySpan := s.cfg.Tracer.StartSpan(job.w.trace, "sal.apply")
			applySpan.Annotate("slice=%d recs=%d replicas=%d", sliceID, job.batch.count, len(nodes))
			applyTC := job.w.trace
			if applySpan != nil {
				applyTC = applySpan.Context()
			}
			errs := make([]error, len(nodes))
			var wg sync.WaitGroup
			for i, node := range nodes {
				wg.Add(1)
				go func(i int, node string) {
					defer wg.Done()
					if _, err := cluster.CallTraced(s.cfg.Transport, applyTC, node, &cluster.WriteLogsReq{
						Tenant: s.cfg.Tenant, SliceID: sliceID, Recs: job.batch.enc,
					}); err != nil {
						errs[i] = fmt.Errorf("sal: page store %s apply: %w", node, err)
					}
				}(i, node)
			}
			wg.Wait()
			applySpan.End()
			if s.m.enabled {
				s.m.apply.ObserveDuration(time.Since(t0))
			}
			failed := false
			for _, err := range errs {
				if err != nil {
					s.poison(ln, err)
					failed = true
				}
			}
			if !failed {
				sp.mu.Lock()
				advanced := false
				if job.batch.maxLSN > sp.applied {
					sp.applied = job.batch.maxLSN
					advanced = true
				}
				for pageID := range job.batch.pageMax {
					if staged, ok := sp.pageStaged[pageID]; ok && staged <= sp.applied {
						delete(sp.pageStaged, pageID)
					}
				}
				sp.cond.Broadcast()
				sp.mu.Unlock()
				if advanced {
					s.noteApplied()
				}
			}
		}
	}
	if job.w.applyRemaining.Add(-1) == 0 {
		s.windowComplete(job.w)
	}
}

// windowComplete retires a fully-applied (or drained) window: its
// records are no longer pending, its lane's apply backlog shrinks, and
// writers stalled on that backlog wake. The log-stage budget was
// already released at durability.
func (s *SAL) windowComplete(w *window) {
	s.pending.Add(int64(-w.count))
	ln := w.lane
	if w.inApply {
		ln.applyBacklog.Add(-1)
		ln.stageMu.Lock()
		ln.stageCond.Broadcast()
		ln.stageMu.Unlock()
	}
	s.flushMu.Lock()
	s.flushCond.Broadcast()
	s.flushMu.Unlock()
}

// WaitDurable blocks until the durable watermark covers lsn: every
// record up to lsn has been acknowledged by all Log Stores (durable in
// triplicate). This is the transaction-commit wait — callers pass the
// transaction's own max LSN, so a committer never waits for LSNs handed
// out to unrelated writers after its last record. Page Store
// application may still be in flight. On a poisoned pipeline it returns
// nil if lsn was already covered (those records ARE durable), keeps
// waiting while lsn lies below the failure point (healthy lanes still
// advance the watermark there), and returns the sticky error otherwise.
func (s *SAL) WaitDurable(lsn uint64) error {
	return s.WaitDurableTraced(lsn, obs.TraceContext{})
}

// WaitDurableTraced is WaitDurable with the committing statement's
// trace context: a sampled commit records a sal.durable_wait span
// covering the blocked time (the fast path records nothing — there was
// no wait).
func (s *SAL) WaitDurableTraced(lsn uint64, tc obs.TraceContext) error {
	if s.durableAtomic.Load() >= lsn {
		return nil
	}
	if tc.Valid() {
		sp := s.cfg.Tracer.StartSpan(tc, "sal.durable_wait")
		sp.Annotate("lsn=%d", lsn)
		defer sp.End()
	}
	s.counters.commitWaits.Add(1)
	if s.m.enabled {
		t0 := time.Now()
		defer func() { s.m.durableWait.ObserveDuration(time.Since(t0)) }()
	}
	s.kickAll()
	s.durMu.Lock()
	defer s.durMu.Unlock()
	for s.durable < lsn {
		if err := s.sticky(); err != nil {
			if s.durFloor == 0 || lsn >= s.durFloor {
				return err
			}
			// lsn is below the first failed window: records covering it
			// sit in healthy lanes and will still become durable.
		}
		if s.isClosed() {
			return errClosed
		}
		s.durCond.Wait()
	}
	return nil
}

// DurableLSN returns the durable (commit) watermark.
func (s *SAL) DurableLSN() uint64 { return s.durableAtomic.Load() }

// StagedPageLSN returns the page's highest staged-but-not-yet-applied
// LSN (0 when every record for the page has been applied — or none was
// ever staged). The buffer pool's miss path uses it as the
// read-your-writes bound when joining another caller's in-flight fetch.
func (s *SAL) StagedPageLSN(pageID uint64) uint64 {
	if s.pending.Load() == 0 {
		return 0
	}
	sp := s.progressIfExists(s.SliceOf(pageID))
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pageStaged[pageID]
}

// waitAppliedPages blocks until the slice's applied LSN covers every
// record staged for the given pages — a read waits only for the pages
// it touches, never for the slice's whole staged prefix. The fast path
// is a single atomic load: with nothing pending anywhere in the
// pipeline there is nothing to wait for.
func (s *SAL) waitAppliedPages(sliceID uint32, pageIDs ...uint64) error {
	if s.pending.Load() == 0 {
		return s.sticky()
	}
	sp := s.progress(sliceID)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var target uint64
	for _, id := range pageIDs {
		if staged := sp.pageStaged[id]; staged > target {
			target = staged
		}
	}
	if target == 0 || sp.applied >= target {
		return nil
	}
	s.counters.applyWaits.Add(1)
	if s.m.enabled {
		t0 := time.Now()
		defer func() { s.m.applyWait.ObserveDuration(time.Since(t0)) }()
	}
	s.kickAll()
	for sp.applied < target {
		if err := s.sticky(); err != nil {
			return err
		}
		if s.isClosed() {
			return errClosed
		}
		sp.cond.Wait()
	}
	return nil
}

// lsnNotifier is the coalescing advance notifier: the Log Stores get
// cluster.FrontierReq relays — the durable watermark plus the per-slice
// applied frontier — whenever a frontier watch is armed (or
// Config.NotifyFrontier forces it). Their push-stream hubs piggyback the
// frontier on pushed frames, so N subscribed replicas cost the master
// O(#LogStores) per advance instead of O(N).
//
// One goroutine, coalescing: however many windows turned durable (or
// slices finished applying) while a round was in flight, the next round
// sends only the newest state.
func (s *SAL) lsnNotifier() {
	defer close(s.notifierDone)
	var lastLSN, lastGen, lastApplied uint64
	for {
		s.durMu.Lock()
		for s.durable == lastLSN && s.repGen == lastGen &&
			s.appliedGen.Load() == lastApplied && !s.isClosed() {
			s.durCond.Wait()
		}
		d, gen := s.durable, s.repGen
		applied := s.appliedGen.Load()
		s.durMu.Unlock()
		if d == lastLSN && gen == lastGen && applied == lastApplied { // closed, nothing new
			return
		}
		lastLSN, lastGen, lastApplied = d, gen, applied
		if s.frontierActive() {
			durable, slices := s.AppliedFrontier()
			req := &cluster.FrontierReq{Tenant: s.cfg.Tenant, DurableLSN: durable, Slices: slices}
			for _, node := range s.cfg.LogStores {
				if _, err := s.cfg.Transport.Call(node, req); err == nil {
					s.counters.frontierNotifies.Add(1)
				}
			}
		}
		if s.isClosed() {
			return
		}
	}
}

// Barrier waits until every record staged before the call is durable on
// the Log Stores and applied to every Page Store replica — without
// stopping new writers. Unlike Flush (which waits for pending == 0 and
// so can starve under sustained write traffic), Barrier snapshots the
// allocated-LSN frontier and each slice's staged frontier once, then
// waits only for that sealed prefix: the checkpointer's drain.
func (s *SAL) Barrier() error {
	lsn := s.lsn.Load()
	if err := s.WaitDurable(lsn); err != nil {
		return err
	}
	type target struct {
		sp  *sliceProgress
		lsn uint64
	}
	var targets []target
	s.slMu.Lock()
	for _, sp := range s.sliceProg {
		t := sp.lastStaged.Load()
		if t > lsn {
			// Staged after the barrier: not part of the snapshot.
			t = lsn
		}
		if t > 0 {
			targets = append(targets, target{sp, t})
		}
	}
	s.slMu.Unlock()
	for _, tg := range targets {
		tg.sp.mu.Lock()
		for tg.sp.applied < tg.lsn {
			if err := s.sticky(); err != nil {
				tg.sp.mu.Unlock()
				return err
			}
			if s.isClosed() {
				tg.sp.mu.Unlock()
				return errClosed
			}
			s.kickAll()
			tg.sp.cond.Wait()
		}
		tg.sp.mu.Unlock()
	}
	return s.sticky()
}

// Flush drains the pipeline: every record staged before the call is
// durable on the Log Stores AND applied to every Page Store replica
// when it returns, across all lanes. Checkpoints and shutdown use it;
// the regular commit path only needs WaitDurable.
func (s *SAL) Flush() error {
	if s.pending.Load() == 0 {
		return s.sticky()
	}
	s.kickAll()
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for s.pending.Load() > 0 {
		if err := s.sticky(); err != nil {
			return err
		}
		s.flushCond.Wait()
		s.kickAll() // records staged since the last seal
	}
	return s.sticky()
}

var errClosed = fmt.Errorf("sal: closed")

func (s *SAL) isClosed() bool { return s.closed.Load() }

// Close drains the pipeline and stops its goroutines. The SAL must not
// be used afterwards.
func (s *SAL) Close() error {
	var err error
	s.closeOnce.Do(func() {
		// Fence new writers first, under every lane's stage lock: any
		// Write that staged its record before this point has pending >
		// 0 and is drained by the Flush below; any Write after it
		// observes closed and is rejected — a record can never slip in
		// behind the final drain.
		for _, ln := range s.lanes {
			ln.stageMu.Lock()
		}
		s.closed.Store(true)
		for _, ln := range s.lanes {
			ln.stageMu.Unlock()
		}
		// Wake anything parked so it observes the closed state.
		s.broadcastAll()
		err = s.Flush()
		close(s.quit)
		for _, ln := range s.lanes {
			<-ln.flusherDone
			ln.nodeWG.Wait()
		}
		<-s.applyDone
		<-s.notifierDone
	})
	return err
}

// Stats snapshots the write-path counters, including the per-lane
// breakdown (windows sealed, seals by reason, adaptive threshold, and
// each assigned slice's apply lag).
func (s *SAL) Stats() PipelineStats {
	st := PipelineStats{
		BackpressureStalls: s.counters.backpressureStalls.Load(),
		CommitWaits:        s.counters.commitWaits.Load(),
		ApplyWaits:         s.counters.applyWaits.Load(),
		PendingRecords:     s.pending.Load(),
		DurableLSN:         s.durableAtomic.Load(),
		AllocatedLSN:       s.lsn.Load(),
		Promotions:         s.counters.promotions.Load(),
		Demotions:          s.counters.demotions.Load(),
		FrontierNotifies:   s.counters.frontierNotifies.Load(),
	}
	st.FrontierWatchers = int(s.frontierWatch.Load())
	bySlice := make(map[int][]SliceApplyStats)
	s.slMu.Lock()
	ids := make([]uint32, 0, len(s.sliceProg))
	for id := range s.sliceProg {
		ids = append(ids, id)
	}
	s.slMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sp := s.progressIfExists(id)
		if sp == nil {
			continue
		}
		laneID := int(sp.laneID.Load())
		staged := sp.lastStaged.Load()
		sp.mu.Lock()
		applied := sp.applied
		pages := len(sp.pageStaged)
		sp.mu.Unlock()
		lag := uint64(0)
		if staged > applied {
			lag = staged - applied
		}
		bySlice[laneID] = append(bySlice[laneID], SliceApplyStats{
			Slice: id, StagedLSN: staged, AppliedLSN: applied,
			ApplyLag: lag, PagesTracked: pages,
		})
	}
	for _, ln := range s.lanes {
		ln.ewmaMu.Lock()
		arrival, fsync := ln.arrivalPerSec, ln.fsyncSeconds
		ln.ewmaMu.Unlock()
		ls := LaneStats{
			Lane:           ln.id,
			Slice:          ln.assignedSlice.Load(),
			WindowsSealed:  ln.windows.Load(),
			RecordsFlushed: ln.records.Load(),
			SealsByReason: map[string]uint64{
				SealThreshold: ln.sealsThreshold.Load(),
				SealDemand:    ln.sealsDemand.Load(),
			},
			FlushThreshold:  int(ln.thresh.Load()),
			ArrivalPerSec:   arrival,
			FsyncMicros:     fsync * 1e6,
			InFlightWindows: ln.inflight.Load(),
			ApplyBacklog:    ln.applyBacklog.Load(),
			Poisoned:        ln.poisoned.Load(),
			Slices:          bySlice[ln.id],
		}
		st.Lanes = append(st.Lanes, ls)
		st.WindowsFlushed += ls.WindowsSealed
		st.RecordsFlushed += ls.RecordsFlushed
		st.InFlightWindows += ls.InFlightWindows
	}
	return st
}
