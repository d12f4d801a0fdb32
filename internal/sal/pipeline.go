// Pipelined group-commit write path.
//
// In the paper, the frontend acknowledges a transaction as soon as its
// log records are durable in triplicate on Log Stores; Page Store
// application is asynchronous ("Log Stores ... Once all of the log
// records belonging to a transaction have been made durable, transaction
// completion can be acknowledged", §II). The write path is one stream:
//
//   - Write assigns the LSN under the stage lock and appends the record
//     to the one staging buffer without doing any I/O; transactions
//     track their own max LSN and commit with WaitDurable(txnMaxLSN)
//     instead of a global allocator snapshot.
//   - The flusher seals the buffer into a window (threshold reached, or
//     a commit, read or drain waits on one of its records) and hands it
//     to per-Log-Store FIFO append workers, so every Log Store receives the windows in LSN
//     order and the log stays an LSN prefix. Up to MaxInFlightWindows
//     windows are appended at once.
//   - The durable watermark advances to the LSN below the lowest record
//     still staged or in flight. Windows turn durable in seal order.
//   - Page Store application happens after durability, asynchronously:
//     a durable window's per-slice batches go to per-slice apply workers
//     (FIFO per slice) which write all replicas in parallel. Each slice
//     has its own apply backlog bound, so a slow replica behind slice A
//     stalls only A's writers and never the staging, sealing or apply
//     of slice B.
//   - Readers wait per page, not per slice: staging records a
//     page→highest-staged-LSN entry (pruned as applies land), and a
//     read blocks only until the slice's applied LSN covers the pages
//     it touches — with the usual single-atomic fast path when nothing
//     is pending anywhere.
//
// Failure model: a Log Store append error poisons the pipeline and
// freezes the durable watermark below the failed window (durFloor).
// Commits already acknowledged stay acknowledged; commits waiting at or
// above the failure point get the sticky error; records in earlier
// windows still in flight become durable and their commits succeed. New
// writes and Page Store applies stop — recovery is Open's job.
package sal

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/obs"
	"taurus/internal/wal"
)

// DefaultMaxInFlightWindows bounds how many sealed windows may be in
// the LOG stage (awaiting Log Store acknowledgement) at once.
const DefaultMaxInFlightWindows = 8

// DefaultApplyBacklogWindows bounds how many durable batches may be
// queued toward one slice's Page Store replicas before that slice's
// writers stall. The two budgets are separate on purpose: durability
// progress (the commit path) must never wait on apply progress.
const DefaultApplyBacklogWindows = 256

// DefaultFlushThreshold is the group-commit window size: the flusher
// seals the staging buffer once it holds this many records, whether or
// not anybody waits on them. Windows a waiter needs seal earlier (see
// flusher), so the threshold sizes only the windows nobody waits on,
// which are bulk loads. On TPC-H and kv loads, in memory and durable,
// 256 was as fast as any other size tried (16, 64, 1024) or faster,
// and as fast as sizing windows from arrival-rate × fsync-latency EWMAs.
const DefaultFlushThreshold = 256

// Seal reasons for PipelineStats.SealsByReason.
const (
	SealThreshold = "threshold"
	SealDemand    = "demand"
)

// sliceBatch is one slice's share of a window: the concatenated record
// encoding, its highest LSN, and the per-page max LSN (read waiters are
// page-granular).
type sliceBatch struct {
	enc     []byte
	maxLSN  uint64
	count   int
	pageMax map[uint64]uint64
}

// window is one sealed group-commit unit moving through the pipeline.
type window struct {
	minLSN uint64
	maxLSN uint64
	count  int
	log    []byte                 // combined encoding for Log Stores
	slices map[uint32]*sliceBatch // per-slice encodings for Page Stores

	logRemaining   atomic.Int32
	applyRemaining atomic.Int32
	// failed marks a window whose Log Store append errored (or that
	// drained through a poisoned pipeline without appending): it must
	// never advance the durable watermark.
	failed atomic.Bool

	// trace is the sampled context the window's appends and applies
	// propagate (the sal.window span's own context when one was opened);
	// span is that window span, ended when the window turns durable.
	// Zero/nil when no staged record belonged to a sampled statement.
	trace obs.TraceContext
	span  *obs.SpanHandle
}

// stage is the open staging buffer.
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

// pipeline is the SAL's write-path state: the staging buffer, the
// flusher, the window stream with its per-Log-Store append workers, and
// the demand rule behind sealing.
type pipeline struct {
	stageMu   sync.Mutex
	stageCond *sync.Cond
	stg       *stage

	notify      chan struct{}
	flusherDone chan struct{}
	sem         chan struct{} // in-flight window budget
	nodeChs     []chan *window
	nodeWG      sync.WaitGroup

	// pendingQ holds sealed windows not yet durably acknowledged, in
	// seal (= LSN) order. Guarded by SAL.durMu: sealing and
	// durable-watermark recomputation must observe it atomically.
	pendingQ []*window

	inflight atomic.Int64 // sealed windows not yet durable
	pending  atomic.Int64 // records staged or in flight, not yet applied

	// demand is the highest LSN a waiter (commit, read, drain) needs
	// sealed. A window below the threshold seals only when it holds a
	// demanded record, so a statement still staging is never split by
	// somebody else's wake-up.
	demand atomic.Uint64
}

// sliceProgress tracks one slice's replica set and LSN frontier on the
// frontend side.
type sliceProgress struct {
	// lastStaged is the highest LSN ever staged for this slice (updated
	// under the stage lock, so it is monotone).
	lastStaged atomic.Uint64
	// backlog counts the slice's durable batches queued or in flight
	// toward its Page Store replicas; the slice's writers stall while it
	// is at Config.ApplyBacklogWindows.
	backlog atomic.Int64

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
	w     *window
	batch *sliceBatch
}

// SliceApplyStats is one slice's frontier.
type SliceApplyStats struct {
	Slice      uint32
	StagedLSN  uint64
	AppliedLSN uint64
	// ApplyLag is StagedLSN - AppliedLSN: how far the slice's Page
	// Store replicas trail the frontend's staging.
	ApplyLag uint64
	// ApplyBacklog is the slice's durable batches not yet on every
	// replica (its writers stall at Config.ApplyBacklogWindows).
	ApplyBacklog int64
	// PagesTracked is the number of pages with staged-but-unapplied
	// records (the read-wait map's size).
	PagesTracked int
}

// PipelineStats is a snapshot of the write-path counters.
type PipelineStats struct {
	// WindowsFlushed / RecordsFlushed total sealed group-commit windows
	// and the records they carried.
	WindowsFlushed uint64
	RecordsFlushed uint64
	// SealsByReason splits WindowsFlushed into threshold-full seals and
	// demand seals (commit/read waiters, Flush).
	SealsByReason map[string]uint64
	// BackpressureStalls counts the times a writer or the flusher had
	// to wait because the staging buffer, the in-flight window budget
	// or the writer's slice apply backlog was full.
	BackpressureStalls uint64
	// CommitWaits counts WaitDurable calls that actually blocked;
	// ApplyWaits counts reads that blocked on a page's applied LSN.
	CommitWaits uint64
	ApplyWaits  uint64
	// InFlightWindows / PendingRecords are the current pipeline depth.
	InFlightWindows int64
	PendingRecords  int64
	// DurableLSN is the commit watermark; AllocatedLSN the last LSN
	// handed out.
	DurableLSN   uint64
	AllocatedLSN uint64
	// Poisoned reports a sticky storage error: writes fail until Open
	// recovers.
	Poisoned bool
	// FrontierNotifies counts frontier relays sent to Log Stores (the
	// push-stream fan-out input); FrontierWatchers is the number of
	// embedded replicas holding a frontier watch.
	FrontierNotifies uint64
	FrontierWatchers int
	// Slices is every known slice's apply frontier and backlog.
	Slices []SliceApplyStats
}

type pipelineCounters struct {
	windows            atomic.Uint64
	records            atomic.Uint64
	sealsThreshold     atomic.Uint64
	sealsDemand        atomic.Uint64
	backpressureStalls atomic.Uint64
	commitWaits        atomic.Uint64
	applyWaits         atomic.Uint64
	frontierNotifies   atomic.Uint64
}

// startPipeline launches the flusher, the per-Log-Store append workers
// and the frontier notifier. Per-slice apply workers start on demand.
func (s *SAL) startPipeline() {
	s.quit = make(chan struct{})
	s.durCond = sync.NewCond(&s.durMu)
	s.flushCond = sync.NewCond(&s.flushMu)
	s.applyWorkers = make(map[uint32]*sliceQueue)
	s.stageCond = sync.NewCond(&s.stageMu)
	s.stg = newStage()
	s.notify = make(chan struct{}, 1)
	s.flusherDone = make(chan struct{})
	s.sem = make(chan struct{}, s.cfg.MaxInFlightWindows)
	s.nodeChs = make([]chan *window, len(s.cfg.LogStores))
	for j := range s.nodeChs {
		s.nodeChs[j] = make(chan *window, s.cfg.MaxInFlightWindows)
		s.nodeWG.Add(1)
		go s.logNodeWorker(s.cfg.LogStores[j], s.nodeChs[j])
	}
	go s.flusher()
	s.notifierDone = make(chan struct{})
	go s.lsnNotifier()
}

// kick nudges the flusher (non-blocking; one pending kick is enough).
func (s *SAL) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// demandSeal asks the flusher to seal every staged record up to lsn.
func (s *SAL) demandSeal(lsn uint64) {
	for cur := s.demand.Load(); cur < lsn && !s.demand.CompareAndSwap(cur, lsn); {
		cur = s.demand.Load()
	}
	s.kick()
}

// sticky returns the pipeline's poisoned state, if any.
func (s *SAL) sticky() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// poison records the first pipeline error and wakes every waiter so it
// can observe the error. The pipeline keeps draining windows (without
// I/O) so Flush and Close terminate, but new writes are rejected.
func (s *SAL) poison(err error) {
	s.errMu.Lock()
	first := s.err == nil
	if first {
		s.err = err
	}
	s.errMu.Unlock()
	if first {
		s.cfg.Events.Record(obs.EventPoison, "%v", err)
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
	s.stageMu.Lock()
	s.stageCond.Broadcast()
	s.stageMu.Unlock()
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
// TrxID) are staged, and the window adopts the context so the
// statement's trace reaches the Log Store appends and Page Store
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

// Write assigns an LSN to rec, stages it, and returns the LSN — the
// caller (a transaction) records it as its commit watermark. No I/O
// happens on this path: durability is a separate wait (WaitDurable),
// and Page Store application is asynchronous. The caller applies the
// record to its own cached page after Write returns.
//
// Catalog records (TypeCatalog) are durability-only: they go to the Log
// Stores so the frontend's data dictionary can be rebuilt on restart,
// but they never touch a slice or a Page Store.
func (s *SAL) Write(rec *wal.Record) (uint64, error) {
	var sp *sliceProgress
	var sliceID uint32
	if rec.Type != wal.TypeCatalog {
		sliceID = s.SliceOf(rec.PageID)
		sp = s.progress(sliceID)
	}
	var stallStart time.Time
	s.stageMu.Lock()
	for {
		if err := s.sticky(); err != nil {
			s.stageMu.Unlock()
			return 0, err
		}
		if s.isClosed() {
			s.stageMu.Unlock()
			return 0, errClosed
		}
		// Backpressure: the staging buffer holds at most two flush
		// windows' worth of records, and the record's own slice must be
		// under its apply backlog bound. Both stalls happen BEFORE the
		// record is staged: an unstaged record cannot pin the durable
		// watermark, so a slice throttled by its slow replica never
		// delays other slices' commits.
		if s.stg.count < 2*s.cfg.FlushThreshold &&
			(sp == nil || sp.backlog.Load() < int64(s.cfg.ApplyBacklogWindows)) {
			break
		}
		s.counters.backpressureStalls.Add(1)
		if s.m.enabled && stallStart.IsZero() {
			stallStart = time.Now()
		}
		// A stalled writer waits on the staged records like a commit
		// does.
		s.demandSeal(s.stg.maxLSN)
		s.stageCond.Wait()
	}
	if !stallStart.IsZero() {
		s.m.stageWait.ObserveDuration(time.Since(stallStart))
	}
	// The LSN is allocated under the stage lock so records enter the
	// buffer in LSN order — the Log Stores accept only an LSN prefix,
	// the Page Stores' idempotent-skip depends on in-order per-slice
	// batches, and the durable-watermark recomputation depends on
	// allocation and staging being atomic.
	lsn := s.lsn.Add(1)
	rec.LSN = lsn
	if sp != nil {
		sb, ok := s.stg.slices[sliceID]
		if !ok {
			sb = &sliceBatch{pageMax: make(map[uint64]uint64)}
			s.stg.slices[sliceID] = sb
		}
		sb.enc = rec.Encode(sb.enc)
		sb.maxLSN = lsn
		sb.count++
		sb.pageMax[rec.PageID] = lsn
		sp.lastStaged.Store(lsn)
		sp.mu.Lock()
		sp.pageStaged[rec.PageID] = lsn
		sp.mu.Unlock()
	}
	s.stg.log = rec.Encode(s.stg.log)
	if !s.stg.trace.Valid() {
		if tc := s.txnTrace(rec.TrxID); tc.Valid() {
			s.stg.trace = tc
		}
	}
	if s.stg.count == 0 {
		s.stg.minLSN = lsn
		if s.m.enabled {
			s.stg.firstAt = time.Now()
		}
	}
	s.stg.count++
	s.stg.maxLSN = lsn
	s.pending.Add(1)
	full := s.stg.count >= s.cfg.FlushThreshold
	s.stageMu.Unlock()
	if full {
		s.kick()
	}
	return lsn, nil
}

// seal swaps the staging buffer for a fresh one and registers the
// sealed window as durability-pending, atomically with respect to the
// durable-watermark recomputation (both under durMu). Returns nil if
// nothing is staged.
func (s *SAL) seal() *window {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.stg.count == 0 {
		return nil
	}
	w := &window{
		minLSN: s.stg.minLSN,
		maxLSN: s.stg.maxLSN,
		count:  s.stg.count,
		log:    s.stg.log,
		slices: s.stg.slices,
	}
	if tc := s.stg.trace; tc.Valid() {
		w.span = s.cfg.Tracer.StartSpan(tc, "sal.window")
		w.span.Annotate("recs=%d lsn=[%d,%d]", w.count, w.minLSN, w.maxLSN)
		if w.span != nil {
			w.trace = w.span.Context()
		} else {
			// No collector on this node: still propagate the caller's
			// context so the storage-side spans attach to the statement.
			w.trace = tc
		}
	}
	if !s.stg.firstAt.IsZero() {
		s.m.seal.ObserveDuration(time.Since(s.stg.firstAt))
	}
	s.stg = newStage()
	s.stageCond.Broadcast() // release backpressured writers
	s.pendingQ = append(s.pendingQ, w)
	return w
}

// flusher seals windows (threshold reached, or a commit, read, Barrier
// or Flush demanded a staged record) and launches them into the
// pipeline.
func (s *SAL) flusher() {
	defer func() {
		for _, ch := range s.nodeChs {
			close(ch)
		}
		close(s.flusherDone)
	}()
	for {
		select {
		case <-s.quit:
			return
		case <-s.notify:
		}
		for {
			// Group-commit batching: a sub-threshold window is sealed
			// only when a waiter demands one of its records and no
			// window is in the Log Store stage, so records arriving
			// during an fsync accumulate into ONE next window instead
			// of each paying a serial fsync. Threshold-full windows
			// pipeline up to the in-flight budget regardless.
			s.stageMu.Lock()
			count, first := s.stg.count, s.stg.minLSN
			s.stageMu.Unlock()
			threshold := s.cfg.FlushThreshold
			if count < threshold && (s.inflight.Load() > 0 || s.demand.Load() < first) {
				break // re-kicked when a window turns durable or a waiter demands
			}
			w := s.seal()
			if w == nil {
				break
			}
			reason := SealDemand
			if w.count >= threshold {
				reason = SealThreshold
				s.counters.sealsThreshold.Add(1)
			} else {
				s.counters.sealsDemand.Add(1)
			}
			s.cfg.Events.Record(obs.EventWindowSeal, "%s, %d recs, lsn [%d,%d]",
				reason, w.count, w.minLSN, w.maxLSN)
			// Bounded in-flight budget: block (and count the stall) when
			// the pipeline is full.
			select {
			case s.sem <- struct{}{}:
			default:
				s.counters.backpressureStalls.Add(1)
				s.sem <- struct{}{}
			}
			s.inflight.Add(1)
			s.counters.windows.Add(1)
			s.counters.records.Add(uint64(w.count))
			w.applyRemaining.Store(int32(len(w.slices)))
			if len(s.nodeChs) == 0 {
				// No Log Stores configured: the window is durable by
				// definition the moment it is sealed.
				s.windowDurable(w)
				continue
			}
			w.logRemaining.Store(int32(len(s.nodeChs)))
			for _, ch := range s.nodeChs {
				ch <- w
			}
		}
	}
}

// logNodeWorker is one Log Store's FIFO append stream. Sequential calls
// per node keep the windows in LSN order on that node — a Log Store
// accepts only the next LSN prefix; different nodes run in parallel,
// and node A can be appending window N+1 while node B is still on
// window N.
func (s *SAL) logNodeWorker(node string, ch chan *window) {
	defer s.nodeWG.Done()
	for w := range ch {
		if s.drainOnly(w) {
			// Draining a poisoned pipeline: nothing past the failure may
			// be acknowledged.
			w.failed.Store(true)
		} else {
			t0 := time.Now()
			_, err := cluster.CallTraced(s.cfg.Transport, w.trace, node, &cluster.LogAppendReq{
				Tenant: s.cfg.Tenant, Recs: w.log,
			})
			if err == nil {
				s.m.append.ObserveDuration(time.Since(t0))
			} else {
				w.failed.Store(true)
				// Freeze the watermark below this window BEFORE the
				// sticky error becomes visible, so a waiter that wakes
				// on the poison broadcast can tell whether its LSN lies
				// below the failure point (an earlier window still in
				// flight may yet cover it) or not.
				s.durMu.Lock()
				if s.durFloor == 0 || w.minLSN < s.durFloor {
					s.durFloor = w.minLSN
				}
				s.durMu.Unlock()
				s.poison(fmt.Errorf("sal: log store %s append: %w", node, err))
			}
		}
		if w.logRemaining.Add(-1) == 0 {
			// Last acknowledgement for this window. Per-node FIFO means
			// window N's last ack strictly precedes window N+1's, and
			// this worker finishes windowDurable(N) before it appends
			// N+1: windows turn durable (and reach the apply stage) in
			// order.
			s.windowDurable(w)
			s.kick() // release any deferred sub-threshold seal
		}
	}
}

// drainOnly reports whether a window must drain without reaching the
// Log Stores: the pipeline is poisoned and the window does not lie
// wholly below a failed append (windows below one still append, so
// their commits succeed).
func (s *SAL) drainOnly(w *window) bool {
	if s.sticky() == nil {
		return false
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.durFloor == 0 || w.maxLSN >= s.durFloor
}

// windowDurable retires the window from the durability-pending queue,
// recomputes the durable watermark, releases the log-stage budget slot,
// and hands the window's slice batches to the apply workers. A failed
// window instead freezes the watermark below its first record: those
// records (and anything above them) were never acknowledged.
func (s *SAL) windowDurable(w *window) {
	s.durMu.Lock()
	// Windows turn durable in seal order, so w heads the queue.
	s.pendingQ = s.pendingQ[1:]
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
	s.inflight.Add(-1)
	<-s.sem
	// Nothing reads the combined Log Store encoding after the last
	// acknowledgement, nor the slice map after this dispatch: a queued
	// apply job then pins only its own slice batch.
	slices := w.slices
	w.log, w.slices = nil, nil
	if w.failed.Load() || len(slices) == 0 {
		// Failed windows must not reach the Page Stores; catalog-only
		// windows have nothing to apply.
		s.windowComplete(w)
		return
	}
	// The slice queues are unbounded, so this never blocks the
	// durability path; in-order durability keeps each slice's batches
	// in LSN order.
	for sliceID, batch := range slices {
		s.progress(sliceID).backlog.Add(1)
		s.sliceWorker(sliceID).push(applyJob{w: w, batch: batch})
	}
}

// recomputeDurableLocked advances the durable watermark to the LSN just
// below the lowest record still staged or in flight (durFloor-capped
// once a window has failed). Caller holds durMu; the LSN snapshot is
// taken before inspecting the pipeline so a concurrent allocation
// (which happens under the stage lock, atomically with staging) can
// never be skipped over.
func (s *SAL) recomputeDurableLocked() {
	d := s.lsn.Load()
	if len(s.pendingQ) > 0 {
		d = s.pendingQ[0].minLSN - 1
	} else {
		s.stageMu.Lock()
		if s.stg.count > 0 {
			d = s.stg.minLSN - 1
		}
		s.stageMu.Unlock()
	}
	if s.durFloor > 0 && d >= s.durFloor {
		d = s.durFloor - 1
	}
	if d > s.durable {
		s.durable = d
		s.durableAtomic.Store(d)
	}
}

// sliceQueue is one slice's unbounded apply-job queue. Unbounded on
// purpose: the apply stage's backpressure is the per-slice backlog
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

// sliceWorker returns (creating if needed) the slice's apply worker
// queue.
func (s *SAL) sliceWorker(sliceID uint32) *sliceQueue {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	q, ok := s.applyWorkers[sliceID]
	if !ok {
		q = newSliceQueue()
		s.applyWorkers[sliceID] = q
		s.sliceWG.Add(1)
		go func() {
			defer s.sliceWG.Done()
			sp := s.progress(sliceID)
			for job, ok := q.pop(); ok; job, ok = q.pop() {
				s.applyBatch(sp, sliceID, job)
			}
		}()
	}
	return q
}

// applyBatch writes one batch to every replica of the slice (replicas
// in parallel) and advances the slice's applied frontier: its pages'
// staged entries are pruned and blocked readers wake. On a poisoned
// pipeline batches drain without I/O.
func (s *SAL) applyBatch(sp *sliceProgress, sliceID uint32, job applyJob) {
	if s.sticky() == nil {
		if err := s.applyToReplicas(sliceID, job); err != nil {
			s.poison(err)
		} else {
			sp.mu.Lock()
			advanced := job.batch.maxLSN > sp.applied
			if advanced {
				sp.applied = job.batch.maxLSN
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
	if sp.backlog.Add(-1) == int64(s.cfg.ApplyBacklogWindows)-1 {
		// The slice just dropped below its bound: release its stalled
		// writers.
		s.stageMu.Lock()
		s.stageCond.Broadcast()
		s.stageMu.Unlock()
	}
	if job.w.applyRemaining.Add(-1) == 0 {
		s.windowComplete(job.w)
	}
}

// applyToReplicas sends one batch to every replica of the slice in
// parallel.
func (s *SAL) applyToReplicas(sliceID uint32, job applyJob) error {
	nodes, err := s.placement(sliceID)
	if err != nil {
		return err
	}
	var t0 time.Time
	if s.m.enabled {
		t0 = time.Now()
	}
	// The per-slice apply fan-out is a child of the window it came from;
	// each replica write is an rpc span under it.
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// windowComplete retires a fully-applied (or drained) window: its
// records are no longer pending and Flush waiters wake. The log-stage
// budget was already released at durability.
func (s *SAL) windowComplete(w *window) {
	s.pending.Add(int64(-w.count))
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
// waiting while lsn lies below the failure point (earlier windows still
// in flight advance the watermark there), and returns the sticky error
// otherwise.
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
	s.demandSeal(lsn)
	s.durMu.Lock()
	defer s.durMu.Unlock()
	for s.durable < lsn {
		if err := s.sticky(); err != nil {
			if s.durFloor == 0 || lsn >= s.durFloor {
				return err
			}
			// lsn is below the first failed window: records covering it
			// sit in earlier windows and may still become durable.
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
	s.demandSeal(target)
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
// applied frontier — whenever a frontier watch is armed. Their
// push-stream hubs piggyback the frontier on pushed frames, so N
// subscribed replicas cost the master O(#LogStores) per advance instead
// of O(N).
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
		// Records staged after the barrier are not part of the snapshot.
		if t := min(sp.lastStaged.Load(), lsn); t > 0 {
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
			tg.sp.cond.Wait()
		}
		tg.sp.mu.Unlock()
	}
	return s.sticky()
}

// Flush drains the pipeline: every record staged before the call is
// durable on the Log Stores AND applied to every Page Store replica
// when it returns. Checkpoints and shutdown use it; the regular commit
// path only needs WaitDurable.
func (s *SAL) Flush() error {
	if s.pending.Load() == 0 {
		return s.sticky()
	}
	s.demandSeal(s.lsn.Load())
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for s.pending.Load() > 0 {
		if err := s.sticky(); err != nil {
			return err
		}
		s.flushCond.Wait()
		s.demandSeal(s.lsn.Load()) // records staged since the last seal
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
		// Fence new writers first, under the stage lock: any Write that
		// staged its record before this point has pending > 0 and is
		// drained by the Flush below; any Write after it observes
		// closed and is rejected — a record can never slip in behind
		// the final drain.
		s.stageMu.Lock()
		s.closed.Store(true)
		s.stageMu.Unlock()
		// Wake anything parked so it observes the closed state.
		s.broadcastAll()
		err = s.Flush()
		close(s.quit)
		<-s.flusherDone
		s.nodeWG.Wait()
		// No window can turn durable any more, so nothing else reaches
		// the apply workers.
		s.applyMu.Lock()
		for _, q := range s.applyWorkers {
			q.close()
		}
		s.applyMu.Unlock()
		s.sliceWG.Wait()
		<-s.notifierDone
	})
	return err
}

// Stats snapshots the write-path counters, including every slice's
// apply frontier and backlog.
func (s *SAL) Stats() PipelineStats {
	st := PipelineStats{
		WindowsFlushed: s.counters.windows.Load(),
		RecordsFlushed: s.counters.records.Load(),
		SealsByReason: map[string]uint64{
			SealThreshold: s.counters.sealsThreshold.Load(),
			SealDemand:    s.counters.sealsDemand.Load(),
		},
		BackpressureStalls: s.counters.backpressureStalls.Load(),
		CommitWaits:        s.counters.commitWaits.Load(),
		ApplyWaits:         s.counters.applyWaits.Load(),
		InFlightWindows:    s.inflight.Load(),
		PendingRecords:     s.pending.Load(),
		DurableLSN:         s.durableAtomic.Load(),
		AllocatedLSN:       s.lsn.Load(),
		Poisoned:           s.sticky() != nil,
		FrontierNotifies:   s.counters.frontierNotifies.Load(),
		FrontierWatchers:   int(s.frontierWatch.Load()),
	}
	s.slMu.Lock()
	ids := make([]uint32, 0, len(s.sliceProg))
	for id := range s.sliceProg {
		ids = append(ids, id)
	}
	s.slMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sp := s.progressIfExists(id)
		staged := sp.lastStaged.Load()
		sp.mu.Lock()
		applied := sp.applied
		pages := len(sp.pageStaged)
		sp.mu.Unlock()
		st.Slices = append(st.Slices, SliceApplyStats{
			Slice: id, StagedLSN: staged, AppliedLSN: applied,
			ApplyLag: staged - min(staged, applied), ApplyBacklog: sp.backlog.Load(),
			PagesTracked: pages,
		})
	}
	return st
}
