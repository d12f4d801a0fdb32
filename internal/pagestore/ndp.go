package pagestore

import (
	"fmt"
	"sync"

	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/page"
)

// PluginInnoDB names the one NDP descriptor format Page Stores read:
// "the Page Store NDP framework accepts an NDP descriptor as a
// type-less byte stream, which an NDP plugin interprets" (§IV-D), and
// internal/core is that interpreter for the Taurus MySQL frontend's
// InnoDB pages. Batch reads carry the name on the wire; an empty name
// means this one, and any other is refused.
const PluginInnoDB = "innodb"

// DescriptorCache caches decoded processors keyed by a hash of the
// descriptor bytes. "Instead of decoding descriptors and converting LLVM
// bitcode for each NDP request, the first request caches the result
// which is reused subsequently" (§IV-D1). Every batch read still carries
// the full descriptor; a hit saves decoding it and its IR programs and
// building the processor. There is no code generation to save: the
// programs are run by the IR's interpreter (ir.Program.Eval), and
// BenchmarkDescriptorCache measures what a hit saves over a miss.
type DescriptorCache struct {
	mu      sync.Mutex
	entries map[uint64]*core.Processor
	cap     int
	hits    uint64
	misses  uint64
}

// NewDescriptorCache creates a cache bounded to cap entries.
func NewDescriptorCache(cap int) *DescriptorCache {
	if cap < 1 {
		cap = 1
	}
	return &DescriptorCache{entries: make(map[uint64]*core.Processor), cap: cap}
}

// Get returns the cached processor for desc, decoding it on a miss.
func (c *DescriptorCache) Get(desc []byte) (*core.Processor, error) {
	key := core.HashBytes(desc)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return e, nil
	}
	c.misses++
	c.mu.Unlock()
	// Decode outside the lock; duplicate decoding on a race is
	// harmless.
	proc, err := core.NewProcessor(desc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.cap {
		// Evict an arbitrary entry; descriptor churn is low.
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = proc
	return proc, nil
}

// Stats reports hit/miss counts.
func (c *DescriptorCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// ResourceControl is the NDP throttle of §IV-D2: "a dedicated thread pool
// was introduced to control the number of NDP pages processed
// concurrently. New NDP page read requests are added to a queue, and wait
// for their turn... If the Page Store has enough resources to complete an
// NDP request without undue waiting, the NDP processing of a page is
// done; otherwise, it is skipped, and the frontend node completes it."
//
// Admission is page-scoped: a single batch can have some pages processed
// and others skipped, so "NDP benefit to a query is not all-or-nothing".
type ResourceControl struct {
	// workers bounds concurrent NDP page processing.
	workers chan struct{}
	// queue bounds how many pages may wait; beyond it, pages are
	// skipped instead of blocking regular reads.
	queue chan struct{}
	// forceSkip makes every admission fail (fault injection / the
	// paper's "Page Store is free to ignore an NDP processing request").
	mu        sync.Mutex
	forceSkip bool
	skipEvery int // skip every Nth page (deterministic partial-skip tests)
	counter   int
}

// NewResourceControl builds a controller with the given worker and queue
// capacities.
func NewResourceControl(workers, queueDepth int) *ResourceControl {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &ResourceControl{
		workers: make(chan struct{}, workers),
		queue:   make(chan struct{}, workers+queueDepth),
	}
}

// QueueDepth reports how many NDP pages are currently admitted —
// queued or processing. Frontends export it per store so scan routing
// imbalance is visible from /stats.
func (rc *ResourceControl) QueueDepth() int { return len(rc.queue) }

// SetForceSkip makes all (or none) admissions fail.
func (rc *ResourceControl) SetForceSkip(v bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.forceSkip = v
}

// SetSkipEvery makes every nth admission fail (0 disables).
func (rc *ResourceControl) SetSkipEvery(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.skipEvery = n
	rc.counter = 0
}

// TryAdmit attempts to reserve a processing slot without blocking beyond
// the queue bound. It returns a release function on success, or false if
// the page should be skipped.
func (rc *ResourceControl) TryAdmit() (func(), bool) {
	rc.mu.Lock()
	if rc.forceSkip {
		rc.mu.Unlock()
		return nil, false
	}
	if rc.skipEvery > 0 {
		rc.counter++
		if rc.counter%rc.skipEvery == 0 {
			rc.mu.Unlock()
			return nil, false
		}
	}
	rc.mu.Unlock()
	select {
	case rc.queue <- struct{}{}:
	default:
		return nil, false // queue full: best-effort skip
	}
	rc.workers <- struct{}{} // wait for a worker slot
	return func() {
		<-rc.workers
		<-rc.queue
	}, true
}

// BatchRead serves an NDP (or plain) batch read: fetch each page at the
// stamped LSN, run best-effort NDP processing in parallel across worker
// slots, then cross-page merge. Pages return in request order.
func (s *Store) BatchRead(req *cluster.BatchReadReq) (*cluster.BatchReadResp, error) {
	sl, err := s.slice(req.Tenant, req.SliceID)
	if err != nil {
		return nil, err
	}
	s.stats.mu.Lock()
	s.stats.BatchReads++
	s.stats.mu.Unlock()

	// Fetch page versions at the request LSN.
	raw := make([]*page.Page, len(req.PageIDs))
	sl.mu.RLock()
	for i, id := range req.PageIDs {
		pv, ok := sl.pages[id]
		if !ok {
			sl.mu.RUnlock()
			return nil, fmt.Errorf("pagestore %s: page %d not in slice", s.name, id)
		}
		var pg *page.Page
		if req.LSN == 0 {
			pg = pv.latest()
		} else {
			pg = pv.at(req.LSN)
		}
		if pg == nil {
			sl.mu.RUnlock()
			return nil, fmt.Errorf("pagestore %s: page %d has no version at lsn %d", s.name, id, req.LSN)
		}
		raw[i] = pg
	}
	sl.mu.RUnlock()

	resp := &cluster.BatchReadResp{Pages: make([][]byte, len(raw))}
	if len(req.Desc) == 0 {
		// Plain batch read.
		for i, pg := range raw {
			resp.Pages[i] = append([]byte(nil), pg.Bytes()...)
		}
		return resp, nil
	}

	if req.Plugin != "" && req.Plugin != PluginInnoDB {
		return nil, fmt.Errorf("pagestore %s: no NDP plugin %q", s.name, req.Plugin)
	}
	proc, err := s.descCache.Get(req.Desc)
	if err != nil {
		return nil, err
	}

	// Process pages in parallel ("multiple threads undertake NDP
	// processing of pages concurrently, independently, and in any
	// order"), skipping under resource pressure.
	processed := make([]*page.Page, len(raw))
	skipped := make([]bool, len(raw))
	var wg sync.WaitGroup
	errs := make([]error, len(raw))
	for i := range raw {
		release, ok := s.control.TryAdmit()
		if !ok {
			skipped[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, release func()) {
			defer wg.Done()
			defer release()
			ndpPage, stats, err := proc.ProcessPage(raw[i])
			if err != nil {
				errs[i] = err
				return
			}
			processed[i] = ndpPage
			s.stats.mu.Lock()
			s.stats.NDPPagesProcessed++
			s.stats.NDPRecordsIn += uint64(stats.RecordsIn)
			s.stats.NDPRecordsOut += uint64(stats.RecordsOut)
			s.stats.mu.Unlock()
		}(i, release)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	// Cross-page aggregation over the successfully processed pages, in
	// request order (§V-C: batch reads enable it).
	mergeable := make([]*page.Page, 0, len(processed))
	for _, pg := range processed {
		if pg != nil {
			mergeable = append(mergeable, pg)
		}
	}
	if err := proc.MergeScalarBatch(mergeable); err != nil {
		return nil, err
	}
	for i := range raw {
		if skipped[i] {
			// Return the raw page flagged so the frontend completes
			// the NDP work (§IV-D2).
			cp := raw[i].Clone()
			cp.SetFlags(page.FlagNDPSkipped)
			resp.Pages[i] = cp.Bytes()
			resp.Skipped++
			s.stats.mu.Lock()
			s.stats.NDPPagesSkipped++
			s.stats.mu.Unlock()
		} else {
			resp.Pages[i] = processed[i].Bytes()
			resp.Processed++
		}
	}
	return resp, nil
}
