// Package pagestore implements the Page Store service of §II and §IV-D:
// a multi-tenant storage node that hosts slices from multiple database
// frontends, keeps pages up to date by applying redo log records, serves
// page reads at requested LSNs, and performs best-effort NDP processing:
// it decodes each batch read's NDP descriptor, with its IR programs,
// into an internal/core processor, caches it, and runs it over the
// pages. The programs are interpreted, not compiled to machine code:
// pure Go cannot emit any, and the IR's switch-loop evaluator was
// measured faster than the threaded-code stand-in it replaced.
package pagestore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/health"
	"taurus/internal/obs"
	"taurus/internal/page"
	"taurus/internal/pstore"
	"taurus/internal/wal"
)

// VersionRetention is how many historical versions of a page a store
// keeps so that LSN-stamped batch reads can be served while writers move
// the page forward (§IV-C4's LSN versioning).
const VersionRetention = 8

type sliceKey struct {
	tenant  uint32
	sliceID uint32
}

// pageVersions is the per-page version chain, ascending LSN.
type pageVersions struct {
	versions []*page.Page
}

func (pv *pageVersions) latest() *page.Page {
	if len(pv.versions) == 0 {
		return nil
	}
	return pv.versions[len(pv.versions)-1]
}

// at returns the newest version with LSN <= lsn (or nil).
func (pv *pageVersions) at(lsn uint64) *page.Page {
	for i := len(pv.versions) - 1; i >= 0; i-- {
		if pv.versions[i].LSN() <= lsn {
			return pv.versions[i]
		}
	}
	return nil
}

// maxPinnedVersions hard-caps a chain even under a version pin. A stale
// pin (a replica that died without clearing it) must not grow memory
// without bound; past the cap the pinned reader falls back to
// refresh-and-retry, which is the pre-pinning behaviour.
const maxPinnedVersions = 64

// push appends a version and trims the chain's tail. floor is the lowest
// LSN any pinned reader may still request (0 = no pin): the oldest
// version is only dropped once the next one already satisfies the floor,
// so a pinned replica's reads keep hitting instead of racing retention.
func (pv *pageVersions) push(pg *page.Page, floor uint64) {
	pv.versions = append(pv.versions, pg)
	for len(pv.versions) > VersionRetention {
		if floor != 0 && len(pv.versions) <= maxPinnedVersions && pv.versions[1].LSN() > floor {
			break // dropping versions[0] would orphan the pinned reader
		}
		pv.versions = pv.versions[1:]
	}
}

// slice holds the pages of one 10 GB database segment (scaled down here;
// slice sizing is the SAL's concern).
type slice struct {
	mu         sync.RWMutex
	pages      map[uint64]*pageVersions
	appliedLSN uint64
	// persistedLSN is the applied LSN covered by the slice's newest
	// durable checkpoint (0 = never checkpointed). Records at or below
	// it survive a crash without log replay.
	persistedLSN uint64
}

// Store is one Page Store node.
type Store struct {
	name string

	mu     sync.RWMutex
	slices map[sliceKey]*slice

	// ckpt is the persistent checkpoint store; nil keeps the node
	// memory-only (the simulated experiments' configuration). ckptMu
	// serializes Checkpoint calls: two interleaved checkpoints could
	// otherwise rename an older slice snapshot over a newer file while
	// persistedLSN keeps the newer value — and the GC watermark would
	// then overstate what disk holds.
	ckpt   *pstore.Store
	ckptMu sync.Mutex

	// NDP machinery.
	descCache *DescriptorCache
	control   *ResourceControl

	// Metrics.
	stats Stats
	// Optional latency instruments, armed by WithMetrics; nil is inert.
	applyHist *obs.Histogram
	readHist  *obs.Histogram

	// tracer records server-side spans for sampled requests; events is
	// the flight recorder (checkpoint completions). Both nil-inert.
	tracer *obs.Tracer
	events *obs.EventRing
	// health answers MsgPing/MsgHealthReport; nil answers pings with an
	// empty OK report. Armed by SetHealth.
	health *health.Monitor

	// Version pins: subscribed replicas pin the version floor they may
	// still read at, so lagging replicas don't lose the race against
	// VersionRetention and fall into refresh-and-retry storms. pinFloor
	// caches the minimum for the apply hot path.
	pinMu    sync.Mutex
	pins     map[string]uint64
	pinFloor atomic.Uint64
}

// Stats counts Page Store activity.
type Stats struct {
	mu                sync.Mutex
	LogRecordsApplied uint64
	// LogRecordsSkipped counts idempotent redeliveries: records at or
	// below a slice's applied LSN, dropped without touching a page.
	// After a checkpoint-based recovery this stays at zero for the
	// checkpointed prefix — those records are never re-sent at all.
	LogRecordsSkipped uint64
	PageReads         uint64
	BatchReads        uint64
	NDPPagesProcessed uint64
	NDPPagesSkipped   uint64
	NDPRecordsIn      uint64
	NDPRecordsOut     uint64
}

// StatsSnapshot is a copy of the counters.
type StatsSnapshot struct {
	LogRecordsApplied uint64
	LogRecordsSkipped uint64
	PageReads         uint64
	BatchReads        uint64
	NDPPagesProcessed uint64
	NDPPagesSkipped   uint64
	NDPRecordsIn      uint64
	NDPRecordsOut     uint64
}

// Option configures a Store.
type Option func(*Store)

// WithResourceControl replaces the default NDP resource controller.
func WithResourceControl(rc *ResourceControl) Option {
	return func(s *Store) { s.control = rc }
}

// WithCheckpoints attaches a persistent checkpoint store: Restore loads
// its slice checkpoints at startup, and Checkpoint persists the node's
// slices to it.
func WithCheckpoints(cs *pstore.Store) Option {
	return func(s *Store) { s.ckpt = cs }
}

// WithTracer arms server-side span recording for sampled requests.
func WithTracer(t *obs.Tracer) Option {
	return func(s *Store) { s.tracer = t }
}

// WithEvents arms flight-recorder event recording.
func WithEvents(r *obs.EventRing) Option {
	return func(s *Store) { s.events = r }
}

// New creates a Page Store node.
func New(name string, opts ...Option) *Store {
	s := &Store{
		name:      name,
		slices:    make(map[sliceKey]*slice),
		descCache: NewDescriptorCache(256),
		control:   NewResourceControl(4, 1024),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the node name.
func (s *Store) Name() string { return s.name }

// HandleTraced implements cluster.TracedHandler: Handle wrapped in a
// server-side child span naming the Page Store operation.
func (s *Store) HandleTraced(tc obs.TraceContext, req any) (any, error) {
	name := "pagestore.handle"
	switch req.(type) {
	case *cluster.WriteLogsReq:
		name = "pagestore.apply"
	case *cluster.ReadPageReq:
		name = "pagestore.read"
	case *cluster.BatchReadReq:
		name = "pagestore.batchread"
	case *cluster.VersionPinReq:
		name = "pagestore.pin"
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

// Handle implements cluster.Handler.
func (s *Store) Handle(req any) (any, error) {
	switch m := req.(type) {
	case *cluster.CreateSliceReq:
		s.CreateSlice(m.Tenant, m.SliceID)
		return &cluster.Ack{}, nil
	case *cluster.WriteLogsReq:
		lsn, err := s.WriteLogs(m.Tenant, m.SliceID, m.Recs)
		if err != nil {
			return nil, err
		}
		return &cluster.Ack{LSN: lsn}, nil
	case *cluster.ReadPageReq:
		pg, err := s.ReadPage(m.Tenant, m.SliceID, m.PageID, m.LSN)
		if err != nil {
			return nil, err
		}
		return &cluster.PageResp{Page: pg}, nil
	case *cluster.BatchReadReq:
		return s.BatchRead(m)
	case *cluster.PageLSNReq:
		slices, applied, persisted := s.LSNInfo(m.Tenant)
		return &cluster.PageLSNResp{
			Slices: uint32(slices), AppliedLSN: applied, PersistedLSN: persisted,
		}, nil
	case *cluster.VersionPinReq:
		s.SetVersionPin(m.Node, m.LSN)
		return &cluster.Ack{LSN: m.LSN}, nil
	case *cluster.PingReq:
		return &cluster.PingResp{Node: s.name, Role: "pagestore",
			Seq: m.Seq, Status: s.health.Worst()}, nil
	case *cluster.HealthReportReq:
		return &cluster.HealthReportResp{Report: s.healthReport()}, nil
	default:
		return nil, fmt.Errorf("pagestore %s: unsupported request %T", s.name, req)
	}
}

// SetVersionPin records (lsn > 0) or clears (lsn == 0) node's version
// floor: the store will not drop a page version a reader at that LSN
// still needs, up to maxPinnedVersions per page. Subscribed replicas pin
// at attach and re-pin as their visible LSN advances.
func (s *Store) SetVersionPin(node string, lsn uint64) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if s.pins == nil {
		s.pins = make(map[string]uint64)
	}
	if lsn == 0 {
		delete(s.pins, node)
	} else {
		s.pins[node] = lsn
	}
	var min uint64
	for _, v := range s.pins {
		if min == 0 || v < min {
			min = v
		}
	}
	s.pinFloor.Store(min)
}

// VersionPinFloor returns the lowest pinned LSN across readers (0 =
// unpinned).
func (s *Store) VersionPinFloor() uint64 { return s.pinFloor.Load() }

// VersionPins returns the number of active pins.
func (s *Store) VersionPins() int {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return len(s.pins)
}

// CreateSlice provisions an empty slice; idempotent.
func (s *Store) CreateSlice(tenant, sliceID uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := sliceKey{tenant, sliceID}
	if _, ok := s.slices[k]; !ok {
		s.slices[k] = &slice{pages: make(map[uint64]*pageVersions)}
	}
}

func (s *Store) slice(tenant, sliceID uint32) (*slice, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.slices[sliceKey{tenant, sliceID}]
	if !ok {
		return nil, fmt.Errorf("pagestore %s: no slice %d/%d", s.name, tenant, sliceID)
	}
	return sl, nil
}

// WriteLogs applies a batch of encoded redo records to the slice's pages,
// in order, creating new page versions. Returns the applied LSN.
func (s *Store) WriteLogs(tenant, sliceID uint32, encoded []byte) (uint64, error) {
	defer observeInto(s.applyHist)()
	sl, err := s.slice(tenant, sliceID)
	if err != nil {
		return 0, err
	}
	recs, err := wal.DecodeAll(encoded)
	if err != nil {
		return 0, err
	}
	pinFloor := s.pinFloor.Load()
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for i := range recs {
		rec := &recs[i]
		if rec.LSN <= sl.appliedLSN {
			s.stats.mu.Lock()
			s.stats.LogRecordsSkipped++
			s.stats.mu.Unlock()
			continue // idempotent redelivery
		}
		if rec.Type == wal.TypeCatalog {
			// Catalog records are frontend-only; a replayed stream may
			// still carry them. They advance the LSN but touch no page.
			sl.appliedLSN = rec.LSN
			continue
		}
		pv, ok := sl.pages[rec.PageID]
		var next *page.Page
		if rec.Type == wal.TypeFormatPage {
			// A fresh page, or a new version of an existing one (a root
			// raised in place): older snapshots keep reading the old.
			if next, err = wal.Format(rec); err != nil {
				return 0, err
			}
			if !ok {
				pv = &pageVersions{}
				sl.pages[rec.PageID] = pv
			}
		} else {
			if !ok {
				return 0, fmt.Errorf("pagestore %s: log for unknown page %d", s.name, rec.PageID)
			}
			// Copy-on-write: clone the latest version, apply, push.
			next = pv.latest().Clone()
			if err := wal.Apply(next, rec); err != nil {
				return 0, err
			}
		}
		pv.push(next, pinFloor)
		sl.appliedLSN = rec.LSN
		s.stats.mu.Lock()
		s.stats.LogRecordsApplied++
		s.stats.mu.Unlock()
	}
	return sl.appliedLSN, nil
}

// ReadPage returns the encoded page image at the requested LSN (0 =
// latest).
func (s *Store) ReadPage(tenant, sliceID uint32, pageID, lsn uint64) ([]byte, error) {
	defer observeInto(s.readHist)()
	sl, err := s.slice(tenant, sliceID)
	if err != nil {
		return nil, err
	}
	sl.mu.RLock()
	pv, ok := sl.pages[pageID]
	var pg *page.Page
	if ok {
		if lsn == 0 {
			pg = pv.latest()
		} else {
			pg = pv.at(lsn)
		}
	}
	sl.mu.RUnlock()
	if pg == nil {
		return nil, fmt.Errorf("pagestore %s: page %d not found (lsn %d)", s.name, pageID, lsn)
	}
	s.stats.mu.Lock()
	s.stats.PageReads++
	s.stats.mu.Unlock()
	// Return a copy: callers must never alias internal versions.
	return append([]byte(nil), pg.Bytes()...), nil
}

// Snapshot returns a copy of the store's statistics.
func (s *Store) Snapshot() StatsSnapshot {
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	return StatsSnapshot{
		LogRecordsApplied: s.stats.LogRecordsApplied,
		LogRecordsSkipped: s.stats.LogRecordsSkipped,
		PageReads:         s.stats.PageReads,
		BatchReads:        s.stats.BatchReads,
		NDPPagesProcessed: s.stats.NDPPagesProcessed,
		NDPPagesSkipped:   s.stats.NDPPagesSkipped,
		NDPRecordsIn:      s.stats.NDPRecordsIn,
		NDPRecordsOut:     s.stats.NDPRecordsOut,
	}
}

// Persistent reports whether a checkpoint store is attached.
func (s *Store) Persistent() bool { return s.ckpt != nil }

// LastCheckpoint returns when the node last wrote (or, after a restart,
// found) a checkpoint artifact; zero without persistence.
func (s *Store) LastCheckpoint() time.Time {
	if s.ckpt == nil {
		return time.Time{}
	}
	return s.ckpt.LastCheckpoint()
}

// LSNInfo reports the tenant's LSN frontier on this node: the number of
// hosted slices and the minimum applied and checkpoint-persisted LSNs
// across them. A persisted minimum of 0 means at least one slice has no
// durable checkpoint — nothing below it may be garbage-collected.
func (s *Store) LSNInfo(tenant uint32) (slices int, appliedMin, persistedMin uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, sl := range s.slices {
		if tenant != 0 && k.tenant != tenant {
			continue
		}
		sl.mu.RLock()
		applied, persisted := sl.appliedLSN, sl.persistedLSN
		sl.mu.RUnlock()
		if slices == 0 || applied < appliedMin {
			appliedMin = applied
		}
		if slices == 0 || persisted < persistedMin {
			persistedMin = persisted
		}
		slices++
	}
	return slices, appliedMin, persistedMin
}

// SliceLSN is one slice's LSN frontier on this node, for stats
// endpoints and the bench harness (confirming slices apply
// independently: one slice's applied LSN keeps moving while a slow
// sibling's lags).
type SliceLSN struct {
	Tenant       uint32
	SliceID      uint32
	AppliedLSN   uint64
	PersistedLSN uint64
}

// SliceLSNs reports every hosted slice's applied/persisted LSNs, sorted
// by tenant then slice.
func (s *Store) SliceLSNs() []SliceLSN {
	s.mu.RLock()
	out := make([]SliceLSN, 0, len(s.slices))
	for k, sl := range s.slices {
		sl.mu.RLock()
		out = append(out, SliceLSN{
			Tenant: k.tenant, SliceID: k.sliceID,
			AppliedLSN: sl.appliedLSN, PersistedLSN: sl.persistedLSN,
		})
		sl.mu.RUnlock()
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].SliceID < out[j].SliceID
	})
	return out
}

// RestoreStats reports what Restore loaded from the checkpoint store.
type RestoreStats struct {
	Slices  int
	Pages   int
	Corrupt int
	// MinAppliedLSN is the lowest restored applied LSN (0 when nothing
	// was restored); log replay must start at or below it.
	MinAppliedLSN uint64
}

// Restore loads every valid slice checkpoint into memory. It must run
// on a fresh store, before any slice is created. Corrupt checkpoint
// files are skipped (counted in the stats): those slices fall back to
// full log replay.
func (s *Store) Restore() (RestoreStats, error) {
	var st RestoreStats
	if s.ckpt == nil {
		return st, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slices) > 0 {
		return st, fmt.Errorf("pagestore %s: Restore on a non-empty store", s.name)
	}
	cks, corrupt, err := s.ckpt.LoadSlices()
	if err != nil {
		return st, fmt.Errorf("pagestore %s: %w", s.name, err)
	}
	st.Corrupt = len(corrupt)
	for _, ck := range cks {
		sl := &slice{
			pages:        make(map[uint64]*pageVersions, len(ck.Pages)),
			appliedLSN:   ck.AppliedLSN,
			persistedLSN: ck.AppliedLSN,
		}
		for _, img := range ck.Pages {
			pg, err := page.FromBytes(append([]byte(nil), img.Data...))
			if err != nil {
				return st, fmt.Errorf("pagestore %s: checkpointed page %d: %w", s.name, img.PageID, err)
			}
			pv := &pageVersions{}
			pv.push(pg, 0)
			sl.pages[img.PageID] = pv
		}
		s.slices[sliceKey{ck.Tenant, ck.SliceID}] = sl
		st.Slices++
		st.Pages += len(ck.Pages)
		if st.Slices == 1 || ck.AppliedLSN < st.MinAppliedLSN {
			st.MinAppliedLSN = ck.AppliedLSN
		}
	}
	return st, nil
}

// CheckpointStats reports one Checkpoint call.
type CheckpointStats struct {
	// SlicesWritten counts slices whose checkpoint file was (re)written;
	// SlicesClean counts slices already persisted at their applied LSN.
	SlicesWritten int
	SlicesClean   int
	Pages         int
	Bytes         int64
	// PersistedLSN is the node's minimum persisted LSN across all
	// slices after the checkpoint (0 when the node hosts no slices).
	PersistedLSN uint64
}

// Checkpoint persists every dirty slice (applied LSN ahead of the last
// checkpoint) to the attached checkpoint store: the latest version of
// each page plus the applied LSN, written atomically per slice. Page
// images are copy-on-write, so the snapshot is taken under a short read
// lock and written to disk outside it.
func (s *Store) Checkpoint() (CheckpointStats, error) {
	var st CheckpointStats
	if s.ckpt == nil {
		return st, fmt.Errorf("pagestore %s: no checkpoint store attached", s.name)
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.RLock()
	keys := make([]sliceKey, 0, len(s.slices))
	for k := range s.slices {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	// Deterministic order keeps directory churn (and tests) predictable.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].sliceID < keys[j].sliceID
	})
	first := true
	for _, k := range keys {
		s.mu.RLock()
		sl := s.slices[k]
		s.mu.RUnlock()
		if sl == nil {
			continue
		}
		sl.mu.RLock()
		applied, persisted := sl.appliedLSN, sl.persistedLSN
		var snap *pstore.SliceCheckpoint
		if applied > persisted {
			snap = &pstore.SliceCheckpoint{
				Tenant: k.tenant, SliceID: k.sliceID, AppliedLSN: applied,
			}
			for id, pv := range sl.pages {
				if pg := pv.latest(); pg != nil {
					// Bytes aliases the immutable version buffer; the
					// apply path clones before mutating, so writing it
					// outside the lock is safe.
					snap.Pages = append(snap.Pages, pstore.PageImage{PageID: id, Data: pg.Bytes()})
				}
			}
		}
		sl.mu.RUnlock()
		if snap == nil {
			st.SlicesClean++
		} else {
			sort.Slice(snap.Pages, func(i, j int) bool { return snap.Pages[i].PageID < snap.Pages[j].PageID })
			n, err := s.ckpt.WriteSlice(snap)
			if err != nil {
				return st, fmt.Errorf("pagestore %s: %w", s.name, err)
			}
			st.SlicesWritten++
			st.Pages += len(snap.Pages)
			st.Bytes += n
			sl.mu.Lock()
			if applied > sl.persistedLSN {
				sl.persistedLSN = applied
			}
			persisted = sl.persistedLSN
			sl.mu.Unlock()
		}
		if first || persisted < st.PersistedLSN {
			st.PersistedLSN = persisted
		}
		first = false
	}
	if st.SlicesWritten > 0 {
		s.events.Record(obs.EventCheckpoint, "%s: %d slices, %d pages, %d bytes, persisted LSN %d",
			s.name, st.SlicesWritten, st.Pages, st.Bytes, st.PersistedLSN)
	}
	return st, nil
}

// DescCacheStats exposes descriptor cache statistics.
func (s *Store) DescCacheStats() (hits, misses uint64) {
	return s.descCache.Stats()
}

// NDPQueueDepth reports how many NDP pages are admitted right now
// (queued or processing) — the store-side load signal behind the
// frontend's least-loaded scan routing.
func (s *Store) NDPQueueDepth() int { return s.control.QueueDepth() }

// NodeStats is one Page Store's observable state, for stats endpoints
// and operator tooling.
type NodeStats struct {
	Name       string
	Persistent bool
	Slices     int
	// AppliedLSN/PersistedLSN are the node-wide minimums across slices
	// (all tenants).
	AppliedLSN   uint64
	PersistedLSN uint64
	// LastCheckpoint is when the newest checkpoint artifact was written
	// (zero without persistence or before the first checkpoint);
	// CheckpointAgeSeconds is the derived age, -1 when unknown.
	LastCheckpoint       time.Time
	CheckpointAgeSeconds float64
	Stats                StatsSnapshot
	// DescCacheHits/DescCacheMisses count NDP descriptor cache lookups,
	// keyed by a hash of the descriptor bytes every batch read carries
	// (the paper sends only an identifier after the first request; this
	// reproduction re-sends the bytes); NDPQueueDepth is the current
	// resource-control admission count (queued + processing).
	DescCacheHits   uint64
	DescCacheMisses uint64
	NDPQueueDepth   int
	// PerSlice breaks the LSN frontier down by hosted slice.
	PerSlice []SliceLSN
}

// NodeStats snapshots the store's observable state.
func (s *Store) NodeStats() NodeStats {
	slices, applied, persisted := s.LSNInfo(0)
	ns := NodeStats{
		Name:                 s.name,
		Persistent:           s.Persistent(),
		Slices:               slices,
		AppliedLSN:           applied,
		PersistedLSN:         persisted,
		LastCheckpoint:       s.LastCheckpoint(),
		CheckpointAgeSeconds: -1,
		Stats:                s.Snapshot(),
		NDPQueueDepth:        s.NDPQueueDepth(),
		PerSlice:             s.SliceLSNs(),
	}
	ns.DescCacheHits, ns.DescCacheMisses = s.DescCacheStats()
	if !ns.LastCheckpoint.IsZero() {
		ns.CheckpointAgeSeconds = time.Since(ns.LastCheckpoint).Seconds()
	}
	return ns
}
