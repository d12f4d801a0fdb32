package sal

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/obs"
)

// TestRouterPicksLeastLoaded drives the score function: a fresh
// router's equal scores rotate over every store, and a store with
// requests in flight loses every pick to idle ones.
func TestRouterPicksLeastLoaded(t *testing.T) {
	r := NewReadRouter()
	nodes := []string{"ps1", "ps2", "ps3"}
	// No history anywhere: equal scores, so the rotating tie-break
	// covers every store in three picks.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		seen[r.Pick(nodes)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("equal scores covered %d/3 nodes: %v", len(seen), seen)
	}
	// ps1 holds two requests in flight. With every EWMA floored at
	// 1 µs it scores 3 against the idle stores' 1, so picks avoid it
	// and rotate between ps2 and ps3.
	done1 := r.Begin("ps1")
	done2 := r.Begin("ps1")
	defer done1(nil)
	defer done2(nil)
	seen = map[string]bool{}
	for i := 0; i < 8; i++ {
		got := r.Pick(nodes)
		if got == "ps1" {
			t.Fatalf("pick %d chose the loaded store ps1", i)
		}
		seen[got] = true
	}
	if !seen["ps2"] || !seen["ps3"] {
		t.Errorf("idle stores did not share the picks: %v", seen)
	}
	if st := r.Stats(); st.ScanRouted != 11 {
		t.Errorf("ScanRouted = %d, want 11", st.ScanRouted)
	}
}

// flakyTransport fails BatchRead calls addressed to broken nodes,
// answers from healthy ones after their delay in slow, and records who
// was called.
type flakyTransport struct {
	mu     sync.Mutex
	broken map[string]bool
	slow   map[string]time.Duration
	calls  []string
}

func (f *flakyTransport) Call(node string, req any) (any, error) {
	f.mu.Lock()
	f.calls = append(f.calls, node)
	bad, delay := f.broken[node], f.slow[node]
	f.mu.Unlock()
	time.Sleep(delay)
	if bad {
		return nil, fmt.Errorf("transport: %s unreachable", node)
	}
	br := req.(*cluster.BatchReadReq)
	resp := &cluster.BatchReadResp{Pages: make([][]byte, len(br.PageIDs))}
	for i, id := range br.PageIDs {
		resp.Pages[i] = []byte{byte(id)}
	}
	return resp, nil
}

// TestFanOutRetriesOnFailure kills the routed-to replica and asserts
// the sub-batch lands on another replica, with the retry counted and a
// scan.retry event recorded.
func TestFanOutRetriesOnFailure(t *testing.T) {
	tr := &flakyTransport{broken: map[string]bool{"ps1": true}}
	router := NewReadRouter()
	events := obs.NewEventRing(16)
	f := &FanOut{
		Transport: tr, Tenant: 1, Plugin: "innodb",
		SliceOf:  func(pageID uint64) uint32 { return uint32(pageID / 4) },
		NodesFor: func(sliceID uint32, ids []uint64) ([]string, error) { return []string{"ps1", "ps2"}, nil },
		Router:   router, Events: events,
	}
	// Force the router to pick ps1 first: score ps2 as busy.
	undo := router.Begin("ps2")
	defer undo(nil)
	res, err := f.BatchRead(obs.TraceContext{}, []uint64{1, 2, 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 3 || res.SubBatches != 1 {
		t.Fatalf("pages=%d subBatches=%d", len(res.Pages), res.SubBatches)
	}
	for i, pg := range res.Pages {
		if len(pg) != 1 || pg[0] != byte(i+1) {
			t.Fatalf("page %d reassembled wrong: %v", i, pg)
		}
	}
	st := router.Stats()
	if st.ScanRetried != 1 || st.ScanHedged != 0 {
		t.Errorf("retried/hedged = %d/%d, want 1/0", st.ScanRetried, st.ScanHedged)
	}
	found := false
	for _, ev := range events.Events() {
		if ev.Kind == obs.EventScanRetry {
			found = true
		}
	}
	if !found {
		t.Error("no scan.retry event recorded")
	}
}

// TestFanOutWaitsOutASlowReplica: a replica that answers late but
// answers is the sub-batch's one answer. Nothing is re-sent to another
// replica, so no NDP work or reply bytes are duplicated.
func TestFanOutWaitsOutASlowReplica(t *testing.T) {
	tr := &flakyTransport{slow: map[string]time.Duration{"ps1": 20 * time.Millisecond}}
	router := NewReadRouter()
	events := obs.NewEventRing(16)
	f := &FanOut{
		Transport: tr, Tenant: 1, Plugin: "innodb",
		SliceOf:  func(pageID uint64) uint32 { return 0 },
		NodesFor: func(sliceID uint32, ids []uint64) ([]string, error) { return []string{"ps1", "ps2"}, nil },
		Router:   router, Events: events,
	}
	// Force the router to pick ps1: score ps2 as busy.
	undo := router.Begin("ps2")
	defer undo(nil)
	res, err := f.BatchRead(obs.TraceContext{}, []uint64{1, 2, 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 3 {
		t.Fatalf("pages = %d, want 3", len(res.Pages))
	}
	tr.mu.Lock()
	calls := append([]string(nil), tr.calls...)
	tr.mu.Unlock()
	if len(calls) != 1 || calls[0] != "ps1" {
		t.Errorf("calls = %v, want one call to ps1", calls)
	}
	if st := router.Stats(); st.ScanRetried != 0 {
		t.Errorf("ScanRetried = %d, want 0", st.ScanRetried)
	}
	for _, ev := range events.Events() {
		if ev.Kind == obs.EventScanRetry {
			t.Errorf("scan.retry event recorded: %s", ev.Detail)
		}
	}
}

// TestFanOutAllReplicasDown: when every replica fails, the first error
// surfaces instead of hanging.
func TestFanOutAllReplicasDown(t *testing.T) {
	tr := &flakyTransport{broken: map[string]bool{"ps1": true, "ps2": true}}
	f := &FanOut{
		Transport: tr, Tenant: 1,
		SliceOf:  func(pageID uint64) uint32 { return 0 },
		NodesFor: func(sliceID uint32, ids []uint64) ([]string, error) { return []string{"ps1", "ps2"}, nil },
		Router:   NewReadRouter(),
	}
	_, err := f.BatchRead(obs.TraceContext{}, []uint64{1}, 0, nil)
	if err == nil {
		t.Fatal("BatchRead succeeded with every replica down")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("error lost the transport cause: %v", err)
	}
}

// TestFanOutSplitsPerSlice: page IDs interleaved across slices come
// back in request order with one sub-batch per slice.
func TestFanOutSplitsPerSlice(t *testing.T) {
	tr := &flakyTransport{}
	f := &FanOut{
		Transport: tr, Tenant: 1,
		SliceOf:  func(pageID uint64) uint32 { return uint32(pageID % 3) },
		NodesFor: func(sliceID uint32, ids []uint64) ([]string, error) { return []string{"ps1"}, nil },
		Router:   NewReadRouter(),
	}
	ids := []uint64{9, 4, 2, 6, 7, 5} // slices 0,1,2,0,1,2
	res, err := f.BatchRead(obs.TraceContext{}, ids, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubBatches != 3 {
		t.Fatalf("SubBatches = %d, want 3", res.SubBatches)
	}
	for i, id := range ids {
		if res.Pages[i][0] != byte(id) {
			t.Fatalf("page %d = %v, want id %d (request order lost)", i, res.Pages[i], id)
		}
	}
}
