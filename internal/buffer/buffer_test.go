package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taurus/internal/page"
)

func fetchFrom(created *int) func(uint64) (*page.Page, error) {
	return func(id uint64) (*page.Page, error) {
		if created != nil {
			*created++
		}
		return page.New(id, id%3, 0), nil
	}
}

func TestGetCachesPages(t *testing.T) {
	p := New(16, 4)
	created := 0
	for i := 0; i < 3; i++ {
		pg, err := p.Get(7, fetchFrom(&created))
		if err != nil {
			t.Fatal(err)
		}
		if pg.ID() != 7 {
			t.Fatal("wrong page")
		}
	}
	if created != 1 {
		t.Errorf("fetched %d times, want 1", created)
	}
	hits, misses, _ := p.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestGetPropagatesFetchError(t *testing.T) {
	p := New(16, 4)
	_, err := p.Get(1, func(uint64) (*page.Page, error) {
		return nil, fmt.Errorf("storage down")
	})
	if err == nil {
		t.Fatal("fetch error must propagate")
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(8, 2)
	created := 0
	for i := uint64(1); i <= 12; i++ {
		if _, err := p.Get(i, fetchFrom(&created)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Resident() > 8 {
		t.Errorf("resident %d exceeds capacity", p.Resident())
	}
	_, _, evictions := p.Stats()
	if evictions == 0 {
		t.Error("expected evictions")
	}
	// The most recently used pages survive.
	if _, ok := p.Lookup(12); !ok {
		t.Error("page 12 should be resident")
	}
	if _, ok := p.Lookup(1); ok {
		t.Error("page 1 should have been evicted")
	}
}

func TestLookupDoesNotFetch(t *testing.T) {
	p := New(8, 2)
	if _, ok := p.Lookup(5); ok {
		t.Fatal("empty pool lookup should miss")
	}
	p.Insert(page.New(5, 1, 0))
	if pg, ok := p.Lookup(5); !ok || pg.ID() != 5 {
		t.Fatal("lookup after insert failed")
	}
}

func TestEvictExplicit(t *testing.T) {
	p := New(8, 2)
	p.Insert(page.New(5, 1, 0))
	p.Evict(5)
	if _, ok := p.Lookup(5); ok {
		t.Fatal("page should be gone")
	}
	p.Evict(99) // no-op
}

func TestInsertIdempotent(t *testing.T) {
	p := New(8, 2)
	a := page.New(5, 1, 0)
	b := page.New(5, 1, 0)
	p.Insert(a)
	if got := p.Insert(b); got != a {
		t.Error("second insert at the same page LSN must not replace the first copy")
	}
	// A higher page LSN wins: a formatted page replaces its old image.
	c := page.New(5, 1, 1)
	c.SetLSN(9)
	if got := p.Insert(c); got != c {
		t.Error("an image with a higher page LSN must replace the resident one")
	}
	if got := p.Insert(a); got != c {
		t.Error("an older image must not replace a newer one")
	}
	if p.Resident() != 1 {
		t.Errorf("resident = %d", p.Resident())
	}
}

func TestNDPAllocationCap(t *testing.T) {
	p := New(64, 3)
	for i := 0; i < 3; i++ {
		if err := p.AllocNDP(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AllocNDP(); err == nil {
		t.Fatal("cap must be enforced")
	}
	if p.NDPInUse() != 3 {
		t.Errorf("NDPInUse = %d", p.NDPInUse())
	}
	p.ReleaseNDP()
	if err := p.AllocNDP(); err != nil {
		t.Fatal("release should free capacity")
	}
	for i := 0; i < 10; i++ {
		p.ReleaseNDP() // over-release must not underflow
	}
	if p.NDPInUse() != 0 {
		t.Errorf("NDPInUse = %d after releases", p.NDPInUse())
	}
}

func TestNDPPagesEvictRegularPages(t *testing.T) {
	// Pool of 8: fill with 8 regular pages, then NDP allocations must
	// push regular pages out.
	p := New(8, 8)
	for i := uint64(1); i <= 8; i++ {
		p.Insert(page.New(i, 1, 0))
	}
	for i := 0; i < 4; i++ {
		if err := p.AllocNDP(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Resident()+p.NDPInUse() > 8 {
		t.Errorf("resident %d + ndp %d exceeds capacity", p.Resident(), p.NDPInUse())
	}
}

func TestNDPPagesInvisibleToLookup(t *testing.T) {
	// NDP pages are never inserted into the hash map: allocation is
	// capacity accounting only, so Lookup can never observe them.
	p := New(8, 4)
	if err := p.AllocNDP(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Error("NDP allocation must not appear in the page map")
	}
}

func TestResidentByIndex(t *testing.T) {
	p := New(32, 4)
	for i := uint64(1); i <= 9; i++ {
		p.Insert(page.New(i, i%3, 0)) // indexes 0,1,2 get 3 pages each
	}
	byIdx := p.ResidentByIndex()
	for idx := uint64(0); idx < 3; idx++ {
		if byIdx[idx] != 3 {
			t.Errorf("index %d: %d pages, want 3", idx, byIdx[idx])
		}
	}
}

// TestSingleflightCollapsesConcurrentMisses races many goroutines at a
// cold page and verifies exactly one fetch reaches the "Page Store".
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	p := New(1024, 4)
	var fetches atomic.Int64
	arrived := make(chan struct{})
	release := make(chan struct{})
	fetch := func(id uint64) (*page.Page, error) {
		if fetches.Add(1) == 1 {
			close(arrived)
		}
		<-release
		return page.New(id, 1, 0), nil
	}
	const callers = 16
	var wg sync.WaitGroup
	pages := make([]*page.Page, callers)
	get := func(i int) {
		defer wg.Done()
		pg, err := p.Get(99, fetch)
		if err != nil {
			t.Error(err)
			return
		}
		pages[i] = pg
	}
	wg.Add(1)
	go get(0)
	<-arrived // the winning fetch is in flight; joiners must now wait
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go get(i)
	}
	// Hold the fetch open until every joiner is parked on it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var shared uint64
		for _, s := range p.ShardStatsSnapshot() {
			shared += s.SingleflightShared
		}
		if shared == callers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d joiners reached the in-flight fetch", shared, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Fatalf("%d fetches for one page, want 1 (singleflight)", n)
	}
	for i := 1; i < callers; i++ {
		if pages[i] != pages[0] {
			t.Fatal("joiners must receive the winner's page")
		}
	}
	var shared uint64
	for _, s := range p.ShardStatsSnapshot() {
		shared += s.SingleflightShared
	}
	if shared != callers-1 {
		t.Fatalf("SingleflightShared = %d, want %d", shared, callers-1)
	}
}

// TestSingleflightErrorPropagates delivers the winner's fetch error to
// every joiner without caching it.
func TestSingleflightErrorPropagates(t *testing.T) {
	p := New(1024, 4)
	var fetches atomic.Int64
	boom := fmt.Errorf("storage down")
	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Get(7, func(uint64) (*page.Page, error) {
				fetches.Add(1)
				return nil, boom
			}); err != nil {
				errCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if errCount.Load() != 8 {
		t.Fatalf("%d of 8 callers saw the error", errCount.Load())
	}
	// The failure is not cached: the next Get fetches again.
	before := fetches.Load()
	if _, err := p.Get(7, fetchFrom(nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lookup(7); !ok {
		t.Fatal("page should be cached after the successful retry")
	}
	_ = before
}

// TestLargePoolShards verifies big pools spread across shards and keep
// capacity and stats accounting consistent under concurrent traffic.
func TestLargePoolShards(t *testing.T) {
	p := New(4096, 8)
	if p.Shards() < 2 {
		t.Skip("single-CPU environment: pool stays unsharded")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				id := i*8 + uint64(g)
				if _, err := p.Get(id, fetchFrom(nil)); err != nil {
					t.Error(err)
					return
				}
				p.Lookup(id)
			}
		}(g)
	}
	wg.Wait()
	if p.Resident() > 4096 {
		t.Fatalf("resident %d exceeds capacity", p.Resident())
	}
	shardStats := p.ShardStatsSnapshot()
	populated := 0
	total := 0
	for _, s := range shardStats {
		if s.Resident > 0 {
			populated++
		}
		total += s.Resident
	}
	if populated < len(shardStats)/2 {
		t.Fatalf("only %d of %d shards populated — IDs are not spreading", populated, len(shardStats))
	}
	if total != p.Resident() {
		t.Fatalf("shard residency %d != pool residency %d", total, p.Resident())
	}
	hits, misses, _ := p.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// TestSmallPoolSingleShard pins the back-compat behavior: tiny pools
// keep one shard (exact global LRU).
func TestSmallPoolSingleShard(t *testing.T) {
	if got := New(64, 4).Shards(); got != 1 {
		t.Fatalf("64-page pool has %d shards, want 1", got)
	}
}

func TestClear(t *testing.T) {
	p := New(8, 2)
	p.Insert(page.New(1, 1, 0))
	p.Clear()
	if p.Resident() != 0 {
		t.Error("Clear should drop everything")
	}
	if _, ok := p.Lookup(1); ok {
		t.Error("page survived Clear")
	}
}

// TestGetAsOfStaleJoinRefetches pins the miss path's read-your-writes
// plumbing: a caller whose page-level staged-LSN bound is newer than an
// in-flight fetch's bound must NOT join it — it fetches independently
// (counted as a stale refetch), because the in-flight result may
// predate records the caller has to see.
func TestGetAsOfStaleJoinRefetches(t *testing.T) {
	p := New(64, 8)
	firstEntered := make(chan struct{})
	release := make(chan struct{})
	var fetches atomic.Int32
	slowFetch := func(id uint64) (*page.Page, error) {
		if fetches.Add(1) == 1 {
			close(firstEntered)
			<-release
		}
		return page.New(id, 1, 0), nil
	}
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		if _, err := p.GetAsOf(42, func() uint64 { return 5 }, slowFetch); err != nil {
			t.Error(err)
		}
	}()
	<-firstEntered
	// A reader content with the in-flight bound joins it (and blocks
	// until the gated fetch completes).
	doneJoin := make(chan struct{})
	go func() {
		defer close(doneJoin)
		if _, err := p.GetAsOf(42, func() uint64 { return 5 }, slowFetch); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-doneJoin:
		t.Fatal("joiner returned before the in-flight fetch completed")
	case <-time.After(50 * time.Millisecond):
	}
	// Same page, but this reader requires staged LSN 9 > the in-flight
	// fetch's bound 5: it must bypass the join and fetch on its own,
	// without waiting for the gated first fetch.
	doneFresh := make(chan struct{})
	go func() {
		defer close(doneFresh)
		if _, err := p.GetAsOf(42, func() uint64 { return 9 }, slowFetch); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-doneFresh:
	case <-time.After(2 * time.Second):
		t.Fatal("fresh-bound reader blocked behind a stale in-flight fetch")
	}
	close(release)
	<-done1
	<-doneJoin
	var stale, shared uint64
	for _, s := range p.ShardStatsSnapshot() {
		stale += s.StaleRefetches
		shared += s.SingleflightShared
	}
	if stale != 1 {
		t.Fatalf("stale refetches = %d, want 1", stale)
	}
	if shared != 1 {
		t.Fatalf("singleflight joins = %d, want 1", shared)
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("page store fetches = %d, want 2 (first + stale bypass)", got)
	}
}

// TestInvalidateFloorBlocksStaleInsert pins the read-replica
// invalidation contract: after Invalidate(page, floor), an image whose
// page LSN is below the floor is neither kept resident nor re-cached by
// a fetch that was already in flight when the invalidation ran — only a
// fresh-enough image clears the floor.
func TestInvalidateFloorBlocksStaleInsert(t *testing.T) {
	p := New(16, 4)
	stale := page.New(7, 1, 0)
	stale.SetLSN(5)
	p.Insert(stale)
	p.Invalidate(7, 10)
	if _, ok := p.Lookup(7); ok {
		t.Fatal("stale image survived Invalidate")
	}
	// A racing fetch bound to the old snapshot completes after the
	// invalidation: its image must not enter the cache (the caller may
	// still use it for its own, older snapshot).
	got, err := p.GetAsOf(7, func() uint64 { return 5 }, func(id uint64) (*page.Page, error) {
		pg := page.New(id, 1, 0)
		pg.SetLSN(5)
		return pg, nil
	})
	if err != nil || got.LSN() != 5 {
		t.Fatalf("stale fetch result: %v %v", got, err)
	}
	if _, ok := p.Lookup(7); ok {
		t.Fatal("stale fetch re-cached a sub-floor image")
	}
	// A fresh image at or above the floor caches normally and clears
	// the floor.
	fresh := page.New(7, 1, 0)
	fresh.SetLSN(12)
	if pg, err := p.Get(7, func(id uint64) (*page.Page, error) { return fresh, nil }); err != nil || pg.LSN() != 12 {
		t.Fatalf("fresh fetch: %v %v", pg, err)
	}
	if pg, ok := p.Lookup(7); !ok || pg.LSN() != 12 {
		t.Fatal("fresh image not cached after clearing the floor")
	}
	// An Invalidate floor the resident image already satisfies keeps it.
	p.Invalidate(7, 12)
	if _, ok := p.Lookup(7); !ok {
		t.Fatal("Invalidate evicted an image already at the floor")
	}
}
