// Package buffer implements the compute node's buffer pool and its NDP
// interaction rules (§IV-C3): regular pages live in the hash map and LRU
// list and are shared by all queries; NDP pages are allocated from the
// pool's free capacity but are "not inserted into such buffer pool
// management data structures as hash map, LRU list, flush list" — they
// are private to the scan cursor that requested them, and their count is
// capped (the innodb_ndp_max_pages_look_ahead parameter) so regular scans
// are not deprived of memory.
//
// The pool is sharded: page IDs hash onto independent shards, each with
// its own lock, hash map, and LRU list, so concurrent scans stop
// serializing on one mutex. Small pools (under 64 pages per shard)
// collapse to a single shard, which preserves the exact global-LRU
// behavior the paper's buffer-pool experiment measures. Concurrent
// misses on the same page are collapsed by a per-key singleflight: one
// caller fetches from the Page Store, the rest wait for its result.
package buffer

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"taurus/internal/page"
)

// DefaultNDPMaxPagesLookAhead mirrors the paper's new MySQL parameter
// bounding an NDP scan's memory footprint ("typically around a thousand
// pages" per batch).
const DefaultNDPMaxPagesLookAhead = 1024

// minPagesPerShard keeps shards big enough that per-shard LRU remains a
// sane approximation of global LRU.
const minPagesPerShard = 64

// maxFloorsPerShard bounds the per-shard invalidation-floor map (see
// Pool.Invalidate); beyond it the set is wiped under an epoch bump.
const maxFloorsPerShard = 4096

// Pool is the buffer pool. All pages it caches are clean: mutations are
// logged through the SAL before being applied to cached copies, so
// eviction never loses data.
type Pool struct {
	capacity int
	ndpCap   int

	shards []*shard
	mask   uint64

	// epoch bumps on every Clear: a fetch that started before a Clear
	// must not re-cache its (pre-Clear) image afterwards — on a read
	// replica a resync has advanced the visible LSN past records the
	// image misses, and on the master the experiments rely on Clear
	// actually starting cold.
	epoch atomic.Uint64

	// ndpInUse is global: NDP capacity accounting spans shards.
	ndpInUse atomic.Int64
	// resident mirrors the total cached page count (for capacity checks
	// without sweeping every shard).
	resident atomic.Int64
	// rr rotates NDP-pressure evictions across shards.
	rr atomic.Uint64
}

type shard struct {
	mu sync.Mutex

	capacity int // regular-page budget of this shard

	frames map[uint64]*frame
	lru    *list.List // front = most recent

	inflight map[uint64]*flight // singleflight: pageID → pending fetch

	// floors are per-page minimum LSNs set by Invalidate: an image
	// whose page LSN is below its floor must not (re)enter the cache —
	// it predates records a read-replica has already made visible. An
	// entry is cleared when a fresh-enough image lands.
	floors map[uint64]uint64

	hits      uint64
	misses    uint64
	evictions uint64
	sfShared  uint64 // misses served by another caller's in-flight fetch
	// staleRefetches counts misses that could NOT join an in-flight
	// fetch because it was bound to an older staged LSN than the
	// caller's read-your-writes requirement.
	staleRefetches uint64
}

type frame struct {
	pg  *page.Page
	elt *list.Element
}

// flight is one in-progress fetch other callers can wait on. bound is
// the read-your-writes LSN the fetcher's wait covered: a joiner that
// needs a higher staged LSN must fetch for itself instead of sharing a
// result that may predate its own writes.
type flight struct {
	done  chan struct{}
	pg    *page.Page
	err   error
	bound uint64
}

// New creates a pool holding up to capacity regular pages and up to
// ndpCap concurrently-live NDP pages.
func New(capacity, ndpCap int) *Pool {
	if capacity < 8 {
		capacity = 8
	}
	if ndpCap <= 0 {
		ndpCap = DefaultNDPMaxPagesLookAhead
	}
	nshards := 1
	for nshards < 2*runtime.GOMAXPROCS(0) && capacity/(nshards*2) >= minPagesPerShard {
		nshards *= 2
	}
	p := &Pool{
		capacity: capacity,
		ndpCap:   ndpCap,
		shards:   make([]*shard, nshards),
		mask:     uint64(nshards - 1),
	}
	for i := range p.shards {
		p.shards[i] = &shard{
			capacity: capacity / nshards,
			frames:   make(map[uint64]*frame),
			lru:      list.New(),
			inflight: make(map[uint64]*flight),
		}
	}
	return p
}

// Shards reports the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// shardOf hashes a page ID onto its shard. Sequential page IDs (the
// common allocation pattern) must spread, so the ID is mixed first.
func (p *Pool) shardOf(pageID uint64) *shard {
	h := pageID * 0x9E3779B97F4A7C15 // Fibonacci hashing
	h ^= h >> 29
	return p.shards[h&p.mask]
}

// ndpShare is the per-shard slice of the live NDP page count, used in
// per-shard eviction decisions (exact for the single-shard case).
func (p *Pool) ndpShare() int {
	return (int(p.ndpInUse.Load()) + len(p.shards) - 1) / len(p.shards)
}

// Get returns the cached page, or fetches, caches, and returns it. A
// racing Get of the same page joins the first caller's fetch instead of
// issuing a duplicate Page Store read.
func (p *Pool) Get(pageID uint64, fetch func(pageID uint64) (*page.Page, error)) (*page.Page, error) {
	return p.GetAsOf(pageID, nil, fetch)
}

// GetAsOf is Get with a page-level read-your-writes bound plumbed
// through the miss path. asOf (lazily evaluated, only on a miss)
// returns the page's highest staged-but-not-yet-applied LSN — the LSN
// the fetch must wait for before reading the Page Store. Cache hits
// skip it entirely: the compute node applies its own writes to cached
// copies, so a resident page is always fresh. A caller that joins an
// in-flight fetch whose bound is older than its own re-fetches instead
// of accepting a result that may predate records it needs to see.
func (p *Pool) GetAsOf(pageID uint64, asOf func() uint64, fetch func(pageID uint64) (*page.Page, error)) (*page.Page, error) {
	epoch := p.epoch.Load()
	sh := p.shardOf(pageID)
	sh.mu.Lock()
	if f, ok := sh.frames[pageID]; ok {
		sh.lru.MoveToFront(f.elt)
		sh.hits++
		pg := f.pg
		sh.mu.Unlock()
		return pg, nil
	}
	var need uint64
	if asOf != nil {
		// Evaluated under the shard lock so the comparison against an
		// in-flight fetch's bound is well ordered; the callback is a
		// couple of atomic/map reads.
		need = asOf()
	}
	if fl, ok := sh.inflight[pageID]; ok && fl.bound >= need {
		sh.sfShared++
		sh.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		return fl.pg, nil
	} else if ok {
		// The in-flight fetch waited for an older staged LSN than this
		// caller requires (a writer staged more for the page since it
		// started): fetch independently rather than serve a stale join.
		sh.staleRefetches++
		sh.mu.Unlock()
		pg, err := fetch(pageID)
		if err == nil {
			pg = p.insertFrame(pg, epoch)
		}
		return pg, err
	}
	fl := &flight{done: make(chan struct{}), bound: need}
	sh.inflight[pageID] = fl
	sh.misses++
	sh.mu.Unlock()
	// Fetch outside the lock; joiners wait on fl.done.
	pg, err := fetch(pageID)
	if err == nil {
		pg = p.insertFrame(pg, epoch)
	}
	fl.pg, fl.err = pg, err
	sh.mu.Lock()
	delete(sh.inflight, pageID)
	sh.mu.Unlock()
	close(fl.done)
	return pg, err
}

// Lookup returns the cached page without fetching. This is the check a
// batch read performs before adding a leaf to the I/O request: "Before a
// leaf page ID is added to a batch read request, a check is made whether
// the page already exists in the buffer pool" (§IV-C4).
func (p *Pool) Lookup(pageID uint64) (*page.Page, bool) {
	sh := p.shardOf(pageID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[pageID]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(f.elt)
	sh.hits++
	return f.pg, true
}

// Insert caches a page image, evicting LRU pages as needed, and returns
// the resident image. When a frame is already resident the higher page
// LSN wins: a formatted page replaces its older image, and a fetch
// completing after a fresher one cannot shadow it.
func (p *Pool) Insert(pg *page.Page) *page.Page {
	return p.insertFrame(pg, p.epoch.Load())
}

// insertFrame is Insert for an image fetched since the pool epoch was
// epoch. An image is rejected (returned uncached) when a Clear
// intervened since then or when the page's invalidation floor says it
// is stale.
func (p *Pool) insertFrame(pg *page.Page, epoch uint64) *page.Page {
	id := pg.ID()
	sh := p.shardOf(id)
	ndpShare := p.ndpShare()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if epoch != p.epoch.Load() {
		// The pool was Cleared while this image was being fetched; the
		// caller may still read it, but it must not repopulate the
		// cache (on a replica the visible LSN may have jumped a
		// resync's worth of records this image predates).
		return pg
	}
	if floor, ok := sh.floors[id]; ok {
		if pg.LSN() < floor {
			// The image predates an invalidation (a fetch that started
			// before records now required became visible): hand it to
			// the caller uncached so the next reader refetches fresh.
			return pg
		}
		delete(sh.floors, id)
	}
	if f, ok := sh.frames[id]; ok {
		if pg.LSN() > f.pg.LSN() {
			f.pg = pg
		}
		return f.pg
	}
	p.evictForSpaceLocked(sh, ndpShare)
	f := &frame{pg: pg}
	f.elt = sh.lru.PushFront(id)
	sh.frames[id] = f
	p.resident.Add(1)
	return pg
}

// evictForSpaceLocked evicts from the shard's LRU tail until a new page
// (plus the shard's share of live NDP pages) fits. Caller holds sh.mu.
func (p *Pool) evictForSpaceLocked(sh *shard, ndpShare int) {
	for len(sh.frames)+ndpShare >= sh.capacity {
		back := sh.lru.Back()
		if back == nil {
			return // nothing evictable; NDP cap guards this case
		}
		id := back.Value.(uint64)
		sh.lru.Remove(back)
		delete(sh.frames, id)
		sh.evictions++
		p.resident.Add(-1)
	}
}

// Evict removes a page from the cache (no-op if absent).
func (p *Pool) Evict(pageID uint64) {
	sh := p.shardOf(pageID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[pageID]; ok {
		sh.lru.Remove(f.elt)
		delete(sh.frames, pageID)
		sh.evictions++
		p.resident.Add(-1)
	}
}

// Invalidate is Evict with a floor: besides dropping any resident image
// older than floorLSN, it remembers the floor so an image predating it
// can never (re)enter the cache — closing the race where a fetch
// started before the invalidation completes after it and would
// otherwise cache the stale image permanently. Read replicas call it
// when records touching the page become visible; the floor is the
// highest such record's LSN, which any fresh-enough image's page LSN
// reaches.
func (p *Pool) Invalidate(pageID, floorLSN uint64) {
	sh := p.shardOf(pageID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[pageID]; ok && f.pg.LSN() < floorLSN {
		sh.lru.Remove(f.elt)
		delete(sh.frames, pageID)
		sh.evictions++
		p.resident.Add(-1)
	}
	if sh.floors == nil {
		sh.floors = make(map[uint64]uint64)
	}
	if floorLSN > sh.floors[pageID] {
		sh.floors[pageID] = floorLSN
	}
	if len(sh.floors) > maxFloorsPerShard {
		// Floors clear when a fresh-enough image lands; pages
		// invalidated but never read again would accumulate entries
		// forever on a long-running replica. Dropping a floor is only
		// safe if no in-flight fetch can slip a stale image in behind
		// it — so wipe the whole set under an epoch bump, which blocks
		// every in-flight insert. Resident frames stay: anything
		// resident already satisfied its floor.
		p.epoch.Add(1)
		sh.floors = make(map[uint64]uint64)
	}
}

// InvalidateBatch applies Invalidate to many pages at once, grouping by
// shard so each shard lock is taken once per batch instead of once per
// page. Push-mode replicas drain a whole stream frame's invalidations
// through here. floors[i] corresponds to pageIDs[i].
func (p *Pool) InvalidateBatch(pageIDs []uint64, floors []uint64) {
	byShard := make(map[*shard][]int, 4)
	for i, pageID := range pageIDs {
		sh := p.shardOf(pageID)
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		sh.mu.Lock()
		for _, i := range idxs {
			pageID, floorLSN := pageIDs[i], floors[i]
			if f, ok := sh.frames[pageID]; ok && f.pg.LSN() < floorLSN {
				sh.lru.Remove(f.elt)
				delete(sh.frames, pageID)
				sh.evictions++
				p.resident.Add(-1)
			}
			if sh.floors == nil {
				sh.floors = make(map[uint64]uint64)
			}
			if floorLSN > sh.floors[pageID] {
				sh.floors[pageID] = floorLSN
			}
		}
		if len(sh.floors) > maxFloorsPerShard {
			p.epoch.Add(1)
			sh.floors = make(map[uint64]uint64)
		}
		sh.mu.Unlock()
	}
}

// AllocNDP reserves capacity for one NDP page. It fails when the NDP cap
// is reached — the scan must release pages before reading more, which is
// exactly the paper's bounded look-ahead. Regular pages are evicted if
// the pool is full, never the other way around.
func (p *Pool) AllocNDP() error {
	for {
		n := p.ndpInUse.Load()
		if int(n) >= p.ndpCap {
			return fmt.Errorf("buffer: NDP page cap %d reached", p.ndpCap)
		}
		if p.ndpInUse.CompareAndSwap(n, n+1) {
			break
		}
	}
	// Make room globally: evict LRU tails round-robin across shards
	// until the NDP page fits beside the resident set.
	for int(p.resident.Load())+int(p.ndpInUse.Load()) > p.capacity {
		if !p.evictOne() {
			break
		}
	}
	return nil
}

// evictOne drops one LRU page from some shard (round-robin scan).
// Returns false when every shard is empty.
func (p *Pool) evictOne() bool {
	for range p.shards {
		sh := p.shards[int(p.rr.Add(1))%len(p.shards)]
		sh.mu.Lock()
		back := sh.lru.Back()
		if back == nil {
			sh.mu.Unlock()
			continue
		}
		id := back.Value.(uint64)
		sh.lru.Remove(back)
		delete(sh.frames, id)
		sh.evictions++
		p.resident.Add(-1)
		sh.mu.Unlock()
		return true
	}
	return false
}

// ReleaseNDP returns one NDP page's capacity to the free list ("after an
// NDP scan finishes processing an NDP page in the batch, the page is
// immediately released back to buffer pool free list").
func (p *Pool) ReleaseNDP() {
	for {
		n := p.ndpInUse.Load()
		if n <= 0 {
			return // over-release must not underflow
		}
		if p.ndpInUse.CompareAndSwap(n, n-1) {
			return
		}
	}
}

// NDPInUse reports currently reserved NDP pages.
func (p *Pool) NDPInUse() int { return int(p.ndpInUse.Load()) }

// Resident returns the number of cached regular pages.
func (p *Pool) Resident() int { return int(p.resident.Load()) }

// ResidentByIndex counts cached pages per index id — the measurement
// behind the paper's Q4 buffer-pool experiment (§VII-D: "the resulting
// buffer pool had 1,272,972 Lineitem pages" vs 24,186 with NDP).
func (p *Pool) ResidentByIndex() map[uint64]int {
	out := make(map[uint64]int)
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			out[f.pg.IndexID()]++
		}
		sh.mu.Unlock()
	}
	return out
}

// Stats returns pool-wide hit/miss/eviction counters.
func (p *Pool) Stats() (hits, misses, evictions uint64) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		evictions += sh.evictions
		sh.mu.Unlock()
	}
	return hits, misses, evictions
}

// ShardStats is one shard's observable state.
type ShardStats struct {
	Resident  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// SingleflightShared counts misses that joined another caller's
	// in-flight fetch instead of hitting the Page Store again;
	// StaleRefetches counts misses that bypassed the join because the
	// in-flight fetch predated their read-your-writes bound.
	SingleflightShared uint64
	StaleRefetches     uint64
}

// HitRate is the shard's hit fraction (0 with no traffic).
func (s ShardStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ShardStatsSnapshot returns per-shard counters, for the stats endpoint
// and the sharding benchmarks.
func (p *Pool) ShardStatsSnapshot() []ShardStats {
	out := make([]ShardStats, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		out[i] = ShardStats{
			Resident:           len(sh.frames),
			Hits:               sh.hits,
			Misses:             sh.misses,
			Evictions:          sh.evictions,
			SingleflightShared: sh.sfShared,
			StaleRefetches:     sh.staleRefetches,
		}
		sh.mu.Unlock()
	}
	return out
}

// Clear drops all cached regular pages (used between experiment runs
// to start cold, and by a replica resync). The epoch bump keeps any
// in-flight fetch from re-caching its pre-Clear image.
func (p *Pool) Clear() {
	p.epoch.Add(1)
	for _, sh := range p.shards {
		sh.mu.Lock()
		p.resident.Add(int64(-len(sh.frames)))
		sh.frames = make(map[uint64]*frame)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}
