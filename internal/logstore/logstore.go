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
// mixed segments; a reopen uses the marker to tell the gaps GC left
// from a torn log, and resumes at it when no record above it survives.
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
// (interrupted append) is detected by CRC and discarded. The log is an
// LSN prefix: above the GC watermark the surviving records must run
// without a gap, and Open fails naming the first missing LSN otherwise.
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
	err = disk.Replay(func(mark uint64, payload []byte) error {
		recs, err := wal.DecodeAll(payload)
		if err != nil {
			return fmt.Errorf("logstore %s: replaying durable batch: %w", name, err)
		}
		for _, r := range recs {
			// Records at or below the GC watermark survive in mixed
			// segments with gaps GC left; above it the log must be a
			// prefix.
			if r.LSN > s.durableLSN+1 && r.LSN > s.truncatedLSN+1 {
				return fmt.Errorf("logstore %s: log has a gap: LSN %d missing (next record is %d)",
					name, max(s.durableLSN, s.truncatedLSN)+1, r.LSN)
			}
			if r.LSN > s.durableLSN {
				s.log = append(s.log, r)
				s.durableLSN = r.LSN
			}
		}
		return nil
	})
	if err != nil {
		disk.Close()
		return nil, err
	}
	s.durableLSN = max(s.durableLSN, s.truncatedLSN)
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

// Append decodes and durably stores a batch of encoded records,
// returning the highest LSN made durable. The log is an LSN prefix:
// records at or below the durable LSN are dropped as redeliveries (SAL
// retries, peer catch-up), and the rest must start at durable + 1 and
// carry every LSN, or the batch is rejected whole. In disk mode Append
// does not return until the fresh records are persisted and fsynced
// (group commit).
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
	i := 0
	for i < len(recs) && recs[i].LSN <= s.durableLSN {
		i++
	}
	fresh := recs[i:]
	for j := range fresh {
		if want := s.durableLSN + 1 + uint64(j); fresh[j].LSN != want {
			s.mu.Unlock()
			return 0, fmt.Errorf("logstore %s: batch skips LSN %d (got %d)", s.name, want, fresh[j].LSN)
		}
	}
	if len(fresh) == 0 {
		lsn := s.durableLSN
		s.mu.Unlock()
		return lsn, nil
	}
	freshN = len(fresh)
	maxLSN := fresh[len(fresh)-1].LSN
	if s.disk == nil {
		s.log = append(s.log, fresh...)
		s.durableLSN = maxLSN
		s.mu.Unlock()
		s.kickHub()
		return maxLSN, nil
	}
	// Disk mode: write the batch into the segment while still holding
	// the lock, so the on-disk order matches LSN order and a concurrent
	// redelivery is filtered; then wait for the fsync outside the lock,
	// letting concurrent appenders share one group commit.
	freshEnc := encoded
	if i > 0 {
		freshEnc = nil
		for j := range fresh {
			freshEnc = fresh[j].Encode(freshEnc)
		}
	}
	_, token, err := s.disk.AppendAsync(maxLSN, freshEnc)
	if err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("logstore %s: %w", s.name, err)
	}
	s.log = append(s.log, fresh...)
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

// DurableLSN returns the highest durable LSN.
func (s *Store) DurableLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableLSN
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
// concurrent Appends (record payloads are immutable once stored).
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
	// reopen must be able to tell GC'd gaps from a torn log.
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
// log (plog.Replay streams them in append order = LSN order) instead of
// waiting for the SAL's triplicate writes to be retried. Batches at or
// below this store's durable LSN are skipped; the rest extend its
// prefix. Returns the number of records appended.
func (s *Store) CatchUp(peer *Store) (int, error) {
	if peer == nil || !peer.Durable() {
		return 0, fmt.Errorf("logstore %s: catch-up needs a disk-backed peer", s.name)
	}
	appended := 0
	err := peer.disk.Replay(func(mark uint64, payload []byte) error {
		// mark is the batch's highest LSN; skip batches we already have
		// without decoding them.
		if mark <= s.DurableLSN() {
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
	// PendingHoles is always 0: the log is an LSN prefix. Kept for
	// readers of earlier stats.
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
	return NodeStats{
		Name:         s.name,
		Durable:      s.Durable(),
		DurableLSN:   s.DurableLSN(),
		TruncatedLSN: s.TruncatedLSN(),
		Records:      s.Len(),
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
