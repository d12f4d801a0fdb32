// Package logstore implements the Log Store service: "a service executing
// in the storage layer responsible for storing log records durably. Once
// all of the log records belonging to a transaction have been made
// durable, transaction completion can be acknowledged ... They also serve
// log records to read replicas" (§II).
//
// The SAL writes each log batch to three Log Stores and waits for all
// three acknowledgements ("synchronously writing log records, in
// triplicate, to durable storage").
//
// A Store runs in one of two modes. New creates the in-memory store the
// simulated experiments use; Open backs the same interface with a
// persistent segmented log (internal/plog), so acknowledged batches
// survive a crash and a restarted node (or a restarted embedded
// deployment) can replay them. Appends in disk mode do not acknowledge
// until the batch is covered by an fsync — plog's group commit batches
// those syncs across concurrent appenders.
package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/health"
	"taurus/internal/obs"
	"taurus/internal/plog"
	"taurus/internal/wal"
)

// Store is one Log Store node.
type Store struct {
	name string

	mu         sync.Mutex
	log        []wal.Record
	durableLSN uint64
	// truncatedLSN is the GC watermark: records at or below it have
	// been dropped from memory (and their sealed segments reclaimed).
	truncatedLSN uint64
	// holes tracks LSNs below durableLSN that no accepted batch has
	// carried yet. The SAL's per-slice write lanes append their windows
	// concurrently, so batches from different lanes interleave in LSN
	// space and can arrive out of order: accepting [6,8] before [5,7]
	// must not make the [5,7] batch look like an idempotent duplicate.
	// LSNs are allocated densely, so every LSN between the old and the
	// new watermark that the advancing batch did not carry is a pending
	// hole; a record is a duplicate only if it is at or below the
	// watermark AND not a pending hole. The set is bounded by the
	// lanes' in-flight windows.
	holes map[uint64]struct{}
	// failed is the sticky disk-failure state: once a persist fails,
	// the in-memory watermark may overstate what is on disk, so the
	// store stops acknowledging anything rather than let a retried
	// batch be filtered as a "duplicate" and falsely acked.
	failed error

	// disk is the persistent log; nil in memory mode. dir is its
	// directory (the GC watermark marker lives beside the segments).
	disk *plog.Log
	dir  string

	// hub is the push-stream multicaster; nil until SetPushTransport
	// arms it (a store nobody subscribes to never needs one).
	hub *hub

	// Optional instruments, armed by RegisterMetrics; nil is inert.
	appendHist *obs.Histogram
	appendRecs *obs.Counter
	// Stream instruments (nil-safe obs counters).
	mSubscribes        *obs.Counter
	mStreamBatches     *obs.Counter
	mStreamRecords     *obs.Counter
	mStreamDisconnects *obs.Counter
	mStreamPushErrors  *obs.Counter

	// tracer records server-side spans for sampled requests; events is
	// the flight recorder for structural transitions (GC truncations).
	// Both nil by default (inert); armed by SetTracer/SetEvents.
	tracer *obs.Tracer
	events *obs.EventRing
	// health answers MsgPing/MsgHealthReport; nil (no monitor) answers
	// pings with an empty OK report. Armed by SetHealth.
	health *health.Monitor
}

// gcMarkFile persists the truncation watermark: plog GC deletes only
// whole segments, so records below the watermark can survive on disk in
// mixed segments, and without the marker a reopened store would
// misread the gaps GC left (acknowledged, collected records) as pending
// lane holes that no peer can ever fill.
const gcMarkFile = "gcmark"

// Option configures a disk-backed Store.
type Option func(*plog.Options)

// WithFlushInterval sets the group-commit window.
func WithFlushInterval(d time.Duration) Option {
	return func(o *plog.Options) { o.FlushInterval = d }
}

// WithSegmentBytes sets the segment rotation size.
func WithSegmentBytes(n int64) Option {
	return func(o *plog.Options) { o.SegmentBytes = n }
}

// WithNoSync disables fsync (volatile disk mode, for benchmarks).
func WithNoSync() Option {
	return func(o *plog.Options) { o.NoSync = true }
}

// New creates a named in-memory Log Store (no durability).
func New(name string) *Store {
	return &Store{name: name}
}

// Open creates or recovers a disk-backed Log Store in dir. Batches
// previously acknowledged are replayed into memory; a torn final entry
// (interrupted append) is detected by CRC and discarded.
func Open(name, dir string, opts ...Option) (*Store, error) {
	po := plog.Options{Dir: dir}
	for _, o := range opts {
		o(&po)
	}
	disk, err := plog.Open(po)
	if err != nil {
		return nil, fmt.Errorf("logstore %s: %w", name, err)
	}
	s := &Store{name: name, disk: disk, dir: dir}
	if b, err := os.ReadFile(filepath.Join(dir, gcMarkFile)); err == nil {
		if mark, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); err == nil {
			s.truncatedLSN = mark
		}
	}
	var all []wal.Record
	err = disk.Replay(func(mark uint64, payload []byte) error {
		recs, err := wal.DecodeAll(payload)
		if err != nil {
			return fmt.Errorf("logstore %s: replaying durable batch: %w", name, err)
		}
		all = append(all, recs...)
		return nil
	})
	if err != nil {
		disk.Close()
		return nil, err
	}
	// Entries land on disk in append order — per-lane FIFO streams, so
	// NOT necessarily LSN order; sort + dedupe so recovery never
	// depends on it.
	sort.SliceStable(all, func(i, j int) bool { return all[i].LSN < all[j].LSN })
	for _, r := range all {
		if r.LSN <= s.durableLSN {
			continue
		}
		// LSNs are dense (allocated from 1), so a gap in the surviving
		// records is a pending hole another lane's batch (or a peer's
		// CatchUp) may still fill — rebuild the hole set the crash wiped
		// out, or a retried batch would be misfiled as a duplicate. Gaps
		// at or below the persisted GC watermark are not holes — segment
		// GC collected those acknowledged records on purpose — so the
		// scan skips that prefix wholesale (never iterating the
		// potentially huge collected range) but otherwise starts at
		// LSN 1 rather than the first surviving record: a hole at the
		// very FRONT of the retained log — above the GC watermark but
		// below everything that survived — is detected too, and CatchUp
		// can backfill it from a peer.
		from := s.durableLSN + 1
		if from <= s.truncatedLSN {
			from = s.truncatedLSN + 1
		}
		for lsn := from; lsn < r.LSN; lsn++ {
			if s.holes == nil {
				s.holes = make(map[uint64]struct{})
			}
			s.holes[lsn] = struct{}{}
		}
		s.log = append(s.log, r)
		s.durableLSN = r.LSN
	}
	return s, nil
}

// Durable reports whether the store persists batches to disk.
func (s *Store) Durable() bool { return s.disk != nil }

// Recovery reports what Open found on disk (zero value in memory mode).
func (s *Store) Recovery() plog.RecoveryInfo {
	if s.disk == nil {
		return plog.RecoveryInfo{}
	}
	return s.disk.Recovery()
}

// LogStats exposes the persistent log's counters (zero in memory mode).
func (s *Store) LogStats() plog.Stats {
	if s.disk == nil {
		return plog.Stats{}
	}
	return s.disk.Snapshot()
}

// SetTracer arms server-side span recording for sampled requests.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetEvents arms flight-recorder event recording.
func (s *Store) SetEvents(r *obs.EventRing) { s.events = r }

// HandleTraced implements cluster.TracedHandler: the same dispatch as
// Handle, wrapped in a server-side child span so an assembled trace
// shows where inside the Log Store a request's time went (the append
// span covers the fsync wait).
func (s *Store) HandleTraced(tc obs.TraceContext, req any) (any, error) {
	name := "logstore.handle"
	switch req.(type) {
	case *cluster.LogAppendReq:
		name = "logstore.append"
		// The pushes this append triggers become children of its span
		// (the full push path shows up in /trace/<id>).
		s.stashStreamTrace(tc)
	case *cluster.LogTruncateReq:
		name = "logstore.truncate"
	case *cluster.LogSubscribeReq:
		name = "logstore.subscribe"
	case *cluster.FrontierReq:
		name = "logstore.frontier"
	}
	sp := s.tracer.StartSpan(tc, name)
	resp, err := s.Handle(req)
	if sp != nil {
		if ack, ok := resp.(*cluster.Ack); ok && err == nil {
			sp.Annotate("lsn=%d", ack.LSN)
		}
		if err != nil {
			sp.Annotate("err=%v", err)
		}
		sp.End()
	}
	return resp, err
}

// Handle implements cluster.Handler for MsgLogAppend and MsgLogTruncate.
func (s *Store) Handle(req any) (any, error) {
	switch m := req.(type) {
	case *cluster.LogAppendReq:
		lsn, err := s.Append(m.Recs)
		if err != nil {
			return nil, err
		}
		return &cluster.Ack{LSN: lsn}, nil
	case *cluster.LogTruncateReq:
		removed, bytes, err := s.TruncateBelow(m.Watermark)
		if err != nil {
			return nil, err
		}
		return &cluster.LogGCResp{Removed: uint32(removed), Bytes: bytes}, nil
	case *cluster.LogSubscribeReq:
		return s.subscribe(m)
	case *cluster.LogUnsubscribeReq:
		s.unsubscribe(m.Node)
		return &cluster.Ack{LSN: s.DurableLSN()}, nil
	case *cluster.FrontierReq:
		s.updateFrontier(m)
		return &cluster.Ack{LSN: m.DurableLSN}, nil
	case *cluster.PingReq:
		return &cluster.PingResp{Node: s.name, Role: "logstore",
			Seq: m.Seq, Status: s.health.Worst()}, nil
	case *cluster.HealthReportReq:
		return &cluster.HealthReportResp{Report: s.healthReport()}, nil
	default:
		return nil, fmt.Errorf("logstore %s: unsupported request %T", s.name, req)
	}
}

// Append decodes and durably stores a batch of encoded records, returning
// the highest LSN made durable. In disk mode it does not return until the
// surviving records are persisted and fsynced (group commit); re-delivered
// records (SAL retries) are filtered before hitting the disk, so
// redelivery is idempotent in both modes.
func (s *Store) Append(encoded []byte) (uint64, error) {
	done := s.observeAppend()
	freshN := 0
	defer func() { done(freshN) }()
	recs, err := wal.DecodeAll(encoded)
	if err != nil {
		return 0, fmt.Errorf("logstore %s: %w", s.name, err)
	}
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return 0, err
	}
	// Filter records already durable (idempotent re-delivery) and keep
	// only the fresh ones. A record at or below the watermark is fresh
	// when it fills a pending hole left by an out-of-order lane batch;
	// anything else below the watermark is a duplicate.
	var fresh []wal.Record
	var freshEnc []byte
	batchLSNs := make(map[uint64]struct{}, len(recs))
	maxLSN := s.durableLSN
	for i := range recs {
		r := &recs[i]
		if r.LSN <= s.durableLSN {
			if _, pending := s.holes[r.LSN]; !pending {
				continue
			}
			delete(s.holes, r.LSN)
		}
		fresh = append(fresh, *r)
		batchLSNs[r.LSN] = struct{}{}
		if s.disk != nil {
			freshEnc = r.Encode(freshEnc)
		}
		if r.LSN > maxLSN {
			maxLSN = r.LSN
		}
	}
	if len(fresh) == 0 {
		lsn := s.durableLSN
		s.mu.Unlock()
		return lsn, nil
	}
	freshN = len(fresh)
	// Advancing the watermark past LSNs this batch did not carry leaves
	// them as pending holes other lanes' batches will fill.
	if maxLSN > s.durableLSN {
		if s.holes == nil {
			s.holes = make(map[uint64]struct{})
		}
		for lsn := s.durableLSN + 1; lsn < maxLSN; lsn++ {
			if _, ok := batchLSNs[lsn]; !ok {
				s.holes[lsn] = struct{}{}
			}
		}
	}
	if s.disk == nil {
		s.insertSortedLocked(fresh)
		s.durableLSN = maxLSN
		s.mu.Unlock()
		s.kickHub()
		return maxLSN, nil
	}
	// Disk mode: write the batch into the segment while still holding
	// the lock, so the on-disk order matches LSN order and a concurrent
	// redelivery is filtered; then wait for the fsync outside the lock,
	// letting concurrent appenders share one group commit.
	_, token, err := s.disk.AppendAsync(maxLSN, freshEnc)
	if err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("logstore %s: %w", s.name, err)
	}
	s.insertSortedLocked(fresh)
	s.durableLSN = maxLSN
	disk := s.disk
	s.mu.Unlock()
	if err := disk.WaitDurable(token); err != nil {
		// The batch may not be on disk but the in-memory watermark
		// already covers it; poison the store so no retry of this (or
		// any later) batch can be mistaken for an idempotent duplicate
		// and acknowledged without durability.
		werr := fmt.Errorf("logstore %s: %w", s.name, err)
		s.mu.Lock()
		if s.failed == nil {
			s.failed = werr
		}
		s.mu.Unlock()
		return 0, werr
	}
	s.kickHub()
	return maxLSN, nil
}

// insertSortedLocked splices a batch (itself in LSN order) into the
// in-memory log, keeping it sorted so ReadFrom serves recovery in LSN
// order even when lane batches were accepted out of order. The common
// case — the batch extends the tail — stays a plain append; a
// hole-filling batch merges into the short suffix it overlaps.
func (s *Store) insertSortedLocked(fresh []wal.Record) {
	if len(s.log) == 0 || fresh[0].LSN > s.log[len(s.log)-1].LSN {
		s.log = append(s.log, fresh...)
		return
	}
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].LSN > fresh[0].LSN })
	suffix := append([]wal.Record(nil), s.log[i:]...)
	s.log = s.log[:i]
	for len(suffix) > 0 && len(fresh) > 0 {
		if suffix[0].LSN < fresh[0].LSN {
			s.log = append(s.log, suffix[0])
			suffix = suffix[1:]
		} else {
			s.log = append(s.log, fresh[0])
			fresh = fresh[1:]
		}
	}
	s.log = append(append(s.log, suffix...), fresh...)
}

// DurableLSN returns the highest durable LSN.
func (s *Store) DurableLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableLSN
}

// PendingHoles reports LSNs below the durable watermark still awaiting
// another write lane's batch (0 at rest).
func (s *Store) PendingHoles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.holes)
}

// TruncatedLSN returns the GC watermark (0 = nothing truncated).
func (s *Store) TruncatedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.truncatedLSN
}

// ReadFrom returns all records with LSN > after, serving read replicas.
func (s *Store) ReadFrom(after uint64) []wal.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wal.Record
	for _, r := range s.log {
		if r.LSN > after {
			out = append(out, r)
		}
	}
	return out
}

// ReadEncodedFrom returns up to max records with LSN > after in their
// wire encoding (LSN order), feeding the push stream's frames. max <= 0
// means unbounded. Only the record headers are copied under the store
// lock; the encoding happens outside it, so stream reads do not stall
// concurrent Appends (record payloads are immutable once
// stored, and hole-filling merges rebuild the slice rather than
// mutating payload bytes).
func (s *Store) ReadEncodedFrom(after uint64, max int) ([]byte, int) {
	s.mu.Lock()
	// The log is sorted by LSN; binary-search the tail start.
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].LSN > after })
	n := len(s.log) - i
	if max > 0 && n > max {
		n = max
	}
	recs := make([]wal.Record, n)
	copy(recs, s.log[i:i+n])
	s.mu.Unlock()
	var enc []byte
	for j := range recs {
		enc = recs[j].Encode(enc)
	}
	return enc, n
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// TruncateBelow garbage-collects records with LSN < watermark: they are
// dropped from memory, and sealed on-disk segments living entirely below
// the watermark are deleted. Callers must only pass watermarks at or
// below the LSN every consumer (Page Store replica, read replica) has
// durably applied — in Taurus, "log records can be purged once all slice
// replicas have applied them". Returns the segments removed and the
// disk bytes reclaimed.
func (s *Store) TruncateBelow(watermark uint64) (int, uint64, error) {
	// Active subscription streams pin GC: a merely-slow subscriber must
	// never find records it still needs collected mid-stream. (A
	// DETACHED replica can still be overrun — that is the checkpoint-
	// resync path at resubscribe.)
	if floor := s.subscriberFloor(); floor > 0 && floor < watermark {
		watermark = floor
	}
	s.mu.Lock()
	kept := s.log[:0]
	for _, r := range s.log {
		if r.LSN >= watermark {
			kept = append(kept, r)
		}
	}
	dropped := len(s.log) - len(kept)
	s.log = append([]wal.Record(nil), kept...)
	for lsn := range s.holes {
		if lsn < watermark {
			delete(s.holes, lsn)
		}
	}
	if watermark > 0 && watermark-1 > s.truncatedLSN {
		s.truncatedLSN = watermark - 1
	}
	disk := s.disk
	dir := s.dir
	mark := s.truncatedLSN
	s.mu.Unlock()
	if dropped > 0 {
		s.events.Record(obs.EventLogGC, "%s: truncated below %d, %d records dropped",
			s.name, watermark, dropped)
	}
	if disk == nil {
		return 0, 0, nil
	}
	// Persist the (monotone) watermark before deleting segments: a
	// reopen must be able to tell GC'd gaps from pending lane holes.
	if mark > 0 {
		tmp := filepath.Join(dir, gcMarkFile+".tmp")
		if err := os.WriteFile(tmp, []byte(strconv.FormatUint(mark, 10)), 0o644); err != nil {
			return 0, 0, fmt.Errorf("logstore %s: %w", s.name, err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, gcMarkFile)); err != nil {
			return 0, 0, fmt.Errorf("logstore %s: %w", s.name, err)
		}
	}
	before := disk.Snapshot().GCBytes
	removed, err := disk.TruncateBelow(watermark)
	if err != nil {
		return removed, 0, fmt.Errorf("logstore %s: %w", s.name, err)
	}
	bytes := disk.Snapshot().GCBytes - before
	if removed > 0 || bytes > 0 {
		s.events.Record(obs.EventLogGC, "%s: reclaimed %d segments, %d bytes below %d",
			s.name, removed, bytes, watermark)
	}
	return removed, bytes, nil
}

// Segments returns the persistent log's on-disk segment count (0 in
// memory mode) — the observable that shrinks when watermark-driven GC
// reclaims sealed segments.
func (s *Store) Segments() int {
	if s.disk == nil {
		return 0
	}
	return s.disk.Segments()
}

// CatchUp is the Log Store replica repair skeleton: a lagging replica
// pulls the batches it is missing straight out of a peer's persistent
// log (plog.Replay streams them in append order) instead of waiting for
// the SAL's triplicate writes to be retried. The durable tail is
// repaired (batches whose highest LSN exceeds this store's durable
// LSN), and so are tracked pending holes below the watermark — LSN
// gaps left by interleaved lane batches, rebuilt from gaps at Open. A
// torn middle the peer ALSO lacks still needs full replica rebuild,
// tracked in ROADMAP. Returns the number of records appended.
func (s *Store) CatchUp(peer *Store) (int, error) {
	if peer == nil || !peer.Durable() {
		return 0, fmt.Errorf("logstore %s: catch-up needs a disk-backed peer", s.name)
	}
	appended := 0
	err := peer.disk.Replay(func(mark uint64, payload []byte) error {
		// mark is the batch's highest LSN; skip batches we already have
		// without decoding them — unless this store has pending holes
		// below its watermark (interleaved lane batches lost in a
		// crash), in which case a below-watermark peer batch may be
		// exactly the filler and Append's hole-aware filter must see
		// it.
		s.mu.Lock()
		pendingHoles := len(s.holes)
		s.mu.Unlock()
		if mark <= s.DurableLSN() && pendingHoles == 0 {
			return nil
		}
		before := s.Len()
		if _, err := s.Append(payload); err != nil {
			return err
		}
		appended += s.Len() - before
		return nil
	})
	if err != nil {
		return appended, fmt.Errorf("logstore %s: catch-up from %s: %w", s.name, peer.name, err)
	}
	return appended, nil
}

// NodeStats is one Log Store's observable state, for stats endpoints
// and operator tooling.
type NodeStats struct {
	Name         string
	Durable      bool
	DurableLSN   uint64
	TruncatedLSN uint64
	Records      int
	// PendingHoles counts LSNs below the durable watermark still
	// awaiting another write lane's batch (normally 0 at rest).
	PendingHoles int
	// Subscribers and StreamLag describe the push stream: attached
	// consumers and the record distance to the slowest one.
	Subscribers int
	StreamLag   uint64
	// Segments counts on-disk segment files (0 in memory mode); Log
	// holds the persistent log's counters, including GCBytes reclaimed
	// by watermark-driven truncation.
	Segments int
	Log      plog.Stats
}

// NodeStats snapshots the store's observable state.
func (s *Store) NodeStats() NodeStats {
	s.mu.Lock()
	pendingHoles := len(s.holes)
	s.mu.Unlock()
	return NodeStats{
		Name:         s.name,
		Durable:      s.Durable(),
		DurableLSN:   s.DurableLSN(),
		TruncatedLSN: s.TruncatedLSN(),
		Records:      s.Len(),
		PendingHoles: pendingHoles,
		Subscribers:  s.Subscribers(),
		StreamLag:    s.StreamLag(),
		Segments:     s.Segments(),
		Log:          s.LogStats(),
	}
}

// Sync forces pending disk writes to storage (no-op in memory mode).
func (s *Store) Sync() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Sync()
}

// Close stops the subscription hub and releases the persistent log.
func (s *Store) Close() error {
	s.closeHub()
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}
