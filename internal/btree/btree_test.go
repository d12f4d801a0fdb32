package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"taurus/internal/page"
	"taurus/internal/types"
	"taurus/internal/wal"
)

// memPager is an in-memory Pager double: a page map plus an LSN counter.
// The engine's real implementation additionally distributes records to
// Log Stores and Page Stores.
type memPager struct {
	pages   map[uint64]*page.Page
	nextID  uint64
	lsn     atomic.Uint64
	applied []wal.Record
}

func newMemPager() *memPager {
	return &memPager{pages: make(map[uint64]*page.Page), nextID: 1}
}

func (m *memPager) Read(pageID uint64) (*page.Page, error) {
	pg, ok := m.pages[pageID]
	if !ok {
		return nil, fmt.Errorf("memPager: page %d not found", pageID)
	}
	return pg, nil
}

func (m *memPager) Allocate() uint64 {
	id := m.nextID
	m.nextID++
	return id
}

func (m *memPager) Apply(rec *wal.Record) (*page.Page, error) {
	rec.LSN = m.lsn.Add(1)
	m.applied = append(m.applied, *rec)
	return m.apply(rec)
}

// apply replays one logged record onto the page map, as a Page Store
// would.
func (m *memPager) apply(rec *wal.Record) (*page.Page, error) {
	if rec.Type == wal.TypeFormatPage {
		pg, err := wal.Format(rec)
		if err != nil {
			return nil, err
		}
		m.pages[rec.PageID] = pg
		return pg, nil
	}
	pg, err := m.Read(rec.PageID)
	if err != nil {
		return nil, err
	}
	if err := wal.Apply(pg, rec); err != nil {
		return nil, err
	}
	return pg, nil
}

func (m *memPager) CurrentLSN() uint64 { return m.lsn.Load() }

func intKey(v int64) []byte {
	return types.EncodeKey(nil, types.Row{types.NewInt(v)})
}

// collectAll walks the leaf chain from the first leaf and returns every
// (key, row) pair in order.
func collectAll(t *testing.T, pgr Pager, tree *Tree) (keys [][]byte, rows [][]byte) {
	t.Helper()
	leafID, err := tree.SeekLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	for leafID != page.InvalidPageID {
		pg, err := pgr.Read(leafID)
		if err != nil {
			t.Fatal(err)
		}
		pg.Iter(func(r page.Record) bool {
			if r.Deleted {
				return true
			}
			k, row, err := page.SplitLeafPayload(r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, append([]byte(nil), k...))
			rows = append(rows, append([]byte(nil), row...))
			return true
		})
		leafID = pg.NextPage()
	}
	return keys, rows
}

func TestCreateEmptyTree(t *testing.T) {
	m := newMemPager()
	tree, err := Create(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 1 {
		t.Fatalf("height = %d", tree.Height())
	}
	root, err := m.Read(tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Level() != 0 || root.IndexID() != 5 {
		t.Fatal("root should be an empty leaf for index 5")
	}
	leaf, err := tree.SeekLeaf(nil)
	if err != nil || leaf != tree.Root() {
		t.Fatalf("SeekLeaf(nil) = %d, %v", leaf, err)
	}
}

func TestInsertAndScanSorted(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	// Insert shuffled keys.
	n := 500
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, v := range perm {
		row := []byte(fmt.Sprintf("row-%d", v))
		if _, err := tree.Insert(intKey(int64(v)), row, 42); err != nil {
			t.Fatal(err)
		}
	}
	keys, rows := collectAll(t, m, tree)
	if len(keys) != n {
		t.Fatalf("scanned %d keys, want %d", len(keys), n)
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			t.Fatalf("keys out of order at %d", i)
		}
	}
	for i, r := range rows {
		if want := fmt.Sprintf("row-%d", i); string(r) != want {
			t.Fatalf("row %d = %q, want %q", i, r, want)
		}
	}
}

func TestSortedBulkInsertGrowsRight(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	row := bytes.Repeat([]byte("x"), 100)
	n := 2000
	for i := 0; i < n; i++ {
		if _, err := tree.Insert(intKey(int64(i)), row, 1); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 2 {
		t.Fatalf("tree should have grown, height=%d", tree.Height())
	}
	keys, _ := collectAll(t, m, tree)
	if len(keys) != n {
		t.Fatalf("got %d keys", len(keys))
	}
	// Sorted loads should fill pages well: with ~140 rows/page at 100%
	// fill, 2000 rows need ~15 leaves; a half-split strategy would use
	// ~2x. Count leaves.
	leaves := 0
	leafID, _ := tree.SeekLeaf(nil)
	for leafID != page.InvalidPageID {
		pg, _ := m.Read(leafID)
		leaves++
		leafID = pg.NextPage()
	}
	if leaves > 20 {
		t.Errorf("sorted load used %d leaves; rightmost-split fast path not engaged", leaves)
	}
}

func TestSeekLeaf(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	for i := 0; i < 1000; i++ {
		tree.Insert(intKey(int64(i*2)), []byte("r"), 1)
	}
	head, err := tree.SeekLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Seek an existing key and a missing key; the leaf must contain the
	// right range.
	for _, probe := range []int64{0, 500, 999, 1998} {
		leafID, err := tree.SeekLeaf(intKey(probe))
		if err != nil {
			t.Fatal(err)
		}
		pg, _ := m.Read(leafID)
		lo, hi := leafKeyRange(t, pg)
		pk := intKey(probe)
		if bytes.Compare(pk, lo) < 0 && leafID != head {
			t.Errorf("probe %d before leaf range", probe)
		}
		_ = hi
	}
}

func leafKeyRange(t *testing.T, pg *page.Page) (lo, hi []byte) {
	t.Helper()
	pg.Iter(func(r page.Record) bool {
		k, _, err := page.SplitLeafPayload(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if lo == nil {
			lo = append([]byte(nil), k...)
		}
		hi = append(hi[:0], k...)
		return true
	})
	return lo, hi
}

// wideKey is a ~1 KB key: a 16 KB page holds about 15 of them, leaf or
// interior, so a few thousand keys build a 4-level tree.
func wideKey(v int64) []byte {
	return append(intKey(v), bytes.Repeat([]byte{'k'}, 1000)...)
}

// growTree inserts wideKey(next()) until the tree is h levels high, then
// half as many keys again, and returns the tree and the keys inserted.
func growTree(t *testing.T, h int, next func() int64) (*memPager, *Tree, [][]byte) {
	t.Helper()
	m := newMemPager()
	tree, _ := Create(m, 1)
	var keys [][]byte
	add := func() {
		k := wideKey(next())
		if _, err := tree.Insert(k, []byte("r"), 1); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for tree.Height() < h {
		add()
	}
	for n := len(keys) / 2; n > 0; n-- {
		add()
	}
	if tree.Height() != h {
		t.Fatalf("height %d after %d keys, want %d", tree.Height(), len(keys), h)
	}
	return m, tree, keys
}

// leafChain walks the leaf chain from its head — the one leaf without a
// prev link, found among all pages rather than by a descent — and
// returns the leaf IDs with each leaf's keys.
func leafChain(t *testing.T, m *memPager) (ids []uint64, keys [][][]byte) {
	t.Helper()
	head := page.InvalidPageID
	for id, pg := range m.pages {
		if pg.Level() == 0 && pg.PrevPage() == page.InvalidPageID {
			if head != page.InvalidPageID {
				t.Fatalf("two leaves without a prev link: %d and %d", head, id)
			}
			head = id
		}
	}
	for id := head; id != page.InvalidPageID; {
		pg, _ := m.Read(id)
		var ks [][]byte
		pg.Iter(func(r page.Record) bool {
			k, _, _ := page.SplitLeafPayload(r.Payload)
			ks = append(ks, append([]byte(nil), k...))
			return true
		})
		ids = append(ids, id)
		keys = append(keys, ks)
		id = pg.NextPage()
	}
	return ids, keys
}

// TestCollectBatchFullScan checks the one descent rule on 2-, 3- and
// 4-level trees built from ascending inserts: SeekLeaf(nil) is the chain
// head, CollectBatch(nil, nil) is the whole chain, and a ranged batch is
// the contiguous chain run from SeekLeaf(lo) to SeekLeaf(hi) covering
// every leaf that holds a key in [lo, hi].
func TestCollectBatchFullScan(t *testing.T) {
	for h := 2; h <= 4; h++ {
		t.Run(fmt.Sprintf("height=%d", h), func(t *testing.T) {
			next := int64(0)
			m, tree, keys := growTree(t, h, func() int64 { next++; return next })
			chain, chainKeys := leafChain(t, m)
			if len(chainKeys) == 0 {
				t.Fatal("empty leaf chain")
			}
			total := 0
			for _, ks := range chainKeys {
				total += len(ks)
			}
			if total != len(keys) {
				t.Fatalf("leaf chain holds %d keys, inserted %d", total, len(keys))
			}
			if head, err := tree.SeekLeaf(nil); err != nil || head != chain[0] {
				t.Fatalf("SeekLeaf(nil) = %d, %v; chain head %d", head, err, chain[0])
			}
			full, err := tree.CollectBatch(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if full.LSN != m.CurrentLSN() {
				t.Errorf("batch LSN %d != current %d", full.LSN, m.CurrentLSN())
			}
			if !slices.Equal(full.LeafIDs, chain) {
				t.Fatalf("CollectBatch(nil, nil) has %d leaves, chain has %d", len(full.LeafIDs), len(chain))
			}

			pos := map[uint64]int{}
			for i, id := range chain {
				pos[id] = i
			}
			r := rand.New(rand.NewSource(int64(h)))
			for trial := 0; trial < 40; trial++ {
				i, j := r.Intn(len(keys)), r.Intn(len(keys))
				if i > j {
					i, j = j, i
				}
				lo, hi := keys[i], keys[j]
				switch trial % 4 {
				case 1:
					lo = nil
				case 2:
					hi = nil
				}
				b, err := tree.CollectBatch(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				first, _ := tree.SeekLeaf(lo)
				if len(b.LeafIDs) == 0 || b.LeafIDs[0] != first {
					t.Fatalf("[%d, %d]: batch %v does not start at SeekLeaf(lo) = %d", i, j, b.LeafIDs, first)
				}
				s := pos[first]
				for k, id := range b.LeafIDs {
					if s+k >= len(chain) || chain[s+k] != id {
						t.Fatalf("[%d, %d]: batch is not a contiguous chain run", i, j)
					}
				}
				if hi != nil {
					last, _ := tree.SeekLeaf(hi)
					if b.LeafIDs[len(b.LeafIDs)-1] != last {
						t.Fatalf("[%d, %d]: batch does not end at SeekLeaf(hi) = %d", i, j, last)
					}
				}
				for c, ks := range chainKeys {
					for _, k := range ks {
						in := (lo == nil || bytes.Compare(k, lo) >= 0) && (hi == nil || bytes.Compare(k, hi) <= 0)
						if in && (c < s || c >= s+len(b.LeafIDs)) {
							t.Fatalf("[%d, %d]: leaf %d holds an in-range key but is not in the batch", i, j, chain[c])
						}
					}
				}
			}
		})
	}
}

// TestScatteredInsertsKeepEveryLeafChained checks, for 20 seeds at each
// of heights 2-4, that the leaf chain built by scattered (seeded random)
// inserts holds exactly the inserted keys in sorted order.
func TestScatteredInsertsKeepEveryLeafChained(t *testing.T) {
	for h := 2; h <= 4; h++ {
		for seed := 1; seed <= 20; seed++ {
			t.Run(fmt.Sprintf("height=%d/seed=%d", h, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(100*h + seed)))
				seen := map[int64]bool{}
				m, _, keys := growTree(t, h, func() int64 {
					for {
						if v := r.Int63n(1 << 40); !seen[v] {
							seen[v] = true
							return v
						}
					}
				})
				slices.SortFunc(keys, bytes.Compare)
				_, chainKeys := leafChain(t, m)
				var got [][]byte
				for _, ks := range chainKeys {
					got = append(got, ks...)
				}
				if len(got) != len(keys) {
					t.Fatalf("leaf chain holds %d keys, inserted %d", len(got), len(keys))
				}
				for i := range keys {
					if !bytes.Equal(got[i], keys[i]) {
						t.Fatalf("leaf chain key %d differs from the sorted model", i)
					}
				}
			})
		}
	}
}

// TestRootRaiseKeepsEveryKeyAtEveryLSN grows a tree to height 3 from
// random keys, then, at every LSN inside each root raise (from the LSN
// before the child's FormatPage through the root's), replays the log
// prefix onto fresh pages and attaches a tree at the fixed root, as a
// read replica or a recovering frontend does. Every key the tree held
// just before the raise must still be found, by descent and by walking
// the leaf chain.
func TestRootRaiseKeepsEveryKeyAtEveryLSN(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	r := rand.New(rand.NewSource(1))
	pad := bytes.Repeat([]byte{'k'}, 200)
	var keys [][]byte
	for tree.Height() < 3 {
		k := append(intKey(r.Int63n(1<<40)), pad...)
		if _, err := tree.Insert(k, []byte("r"), 1); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// A raise runs from its child's FormatPage to the root's.
	formatted := map[uint64]uint64{} // page → LSN of its latest FormatPage
	type raise struct{ from, to uint64 }
	var raises []raise
	for _, rec := range m.applied {
		if rec.Type != wal.TypeFormatPage {
			continue
		}
		formatted[rec.PageID] = rec.LSN
		if rec.PageID == tree.Root() && rec.Level > 0 {
			_, child, err := page.SplitNodePtr(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			raises = append(raises, raise{formatted[child], rec.LSN})
		}
	}
	if len(raises) != 2 {
		t.Fatalf("%d root raises, want 2", len(raises))
	}
	replayed := newMemPager()
	next, checked := 0, 0
	for _, rz := range raises {
		// The raise may sit inside a leaf split, whose moved records are
		// not reachable until its node pointer lands: the baseline is
		// what is findable at the LSN before the raise.
		var held [][]byte
		for lsn := rz.from - 1; lsn <= rz.to; lsn++ {
			for ; next < len(m.applied) && m.applied[next].LSN <= lsn; next++ {
				if _, err := replayed.apply(&m.applied[next]); err != nil {
					t.Fatal(err)
				}
			}
			view := Attach(replayed, 1, tree.Root())
			if held == nil {
				var err error
				if held, err = findable(replayed, view, keys); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := findable(replayed, view, held)
			if err != nil {
				t.Fatalf("at LSN %d (raise %d..%d): %v", lsn, rz.from, rz.to, err)
			}
			if len(got) != len(held) {
				t.Fatalf("at LSN %d (raise %d..%d): %d of %d keys findable", lsn, rz.from, rz.to, len(got), len(held))
			}
			checked++
		}
	}
	t.Logf("checked %d LSNs across %d raises", checked, len(raises))
}

// findable returns the keys that both SeekLeaf leads to and the leaf
// chain from SeekLeaf(nil) holds.
func findable(pgr Pager, tree *Tree, keys [][]byte) ([][]byte, error) {
	type leaf struct {
		keys map[string]bool
		next uint64
	}
	leaves := map[uint64]leaf{}
	leafAt := func(id uint64) (leaf, error) {
		if l, ok := leaves[id]; ok {
			return l, nil
		}
		pg, err := pgr.Read(id)
		if err != nil {
			return leaf{}, err
		}
		l := leaf{keys: map[string]bool{}, next: pg.NextPage()}
		pg.Iter(func(r page.Record) bool {
			k, _, _ := page.SplitLeafPayload(r.Payload)
			l.keys[string(k)] = true
			return true
		})
		leaves[id] = l
		return l, nil
	}
	chain := map[string]bool{}
	id, err := tree.SeekLeaf(nil)
	for err == nil && id != page.InvalidPageID {
		var l leaf
		if l, err = leafAt(id); err == nil {
			for k := range l.keys {
				chain[k] = true
			}
			id = l.next
		}
	}
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, k := range keys {
		leafID, err := tree.SeekLeaf(k)
		if err != nil {
			return nil, err
		}
		l, err := leafAt(leafID)
		if err != nil {
			return nil, err
		}
		if l.keys[string(k)] && chain[string(k)] {
			out = append(out, k)
		}
	}
	return out, nil
}

// raisingPager runs hook once, on the first read made outside the tree
// lock: the read ReadLeaf makes after SeekLeaf has released it.
type raisingPager struct {
	*memPager
	tree *Tree
	hook func()
}

func (p *raisingPager) Read(pageID uint64) (*page.Page, error) {
	if p.hook != nil && p.tree.mu.TryLock() {
		p.tree.mu.Unlock()
		hook := p.hook
		p.hook = nil
		hook()
	}
	return p.memPager.Read(pageID)
}

// TestReadLeafFollowsRootRaise: a leaf root raised (twice) between
// SeekLeaf's descent and the leaf read is an interior page by the time
// it is read; ReadLeaf still returns the leaf that holds the key.
func TestReadLeafFollowsRootRaise(t *testing.T) {
	p := &raisingPager{memPager: newMemPager()}
	tree, err := Create(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.tree = tree
	for i := int64(0); i < 10; i++ {
		if _, err := tree.Insert(intKey(i), []byte("r"), 1); err != nil {
			t.Fatal(err)
		}
	}
	row := bytes.Repeat([]byte{'r'}, 2000)
	p.hook = func() {
		for i := int64(100); tree.Height() < 3; i++ {
			if _, err := tree.Insert(intKey(i), row, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	leaf, err := tree.ReadLeaf(intKey(5))
	if err != nil {
		t.Fatal(err)
	}
	if p.hook != nil || tree.Height() != 3 {
		t.Fatalf("hook did not raise the root: height %d", tree.Height())
	}
	if leaf.Level() != 0 {
		t.Fatalf("ReadLeaf returned page %d at level %d", leaf.ID(), leaf.Level())
	}
	if !slices.ContainsFunc(leaf.Records(), func(r page.Record) bool {
		k, _, _ := page.SplitLeafPayload(r.Payload)
		return bytes.Equal(k, intKey(5))
	}) {
		t.Fatalf("leaf %d does not hold key 5", leaf.ID())
	}
}

// TestInsertAfterDeletingEveryRowOfLeafRoot: a raise leaves
// delete-marked records behind, so when a leaf root full of them is
// raised, the child has room and must take the insert without a split
// (there is nothing in it to split).
func TestInsertAfterDeletingEveryRowOfLeafRoot(t *testing.T) {
	m := newMemPager()
	tree, err := Create(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := bytes.Repeat([]byte{'r'}, 200)
	for i := int64(0); ; i++ {
		root, err := m.Read(tree.Root())
		if err != nil {
			t.Fatal(err)
		}
		if !root.HasRoomFor(len(page.EncodeLeafPayload(nil, intKey(i), row))) {
			break
		}
		if _, err := tree.Insert(intKey(i), row, 1); err != nil {
			t.Fatal(err)
		}
	}
	root, _ := m.Read(tree.Root())
	for _, r := range root.Records() {
		if _, err := m.Apply(&wal.Record{Type: wal.TypeDeleteMark, PageID: root.ID(), Off: uint32(r.Off), Flag: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.Insert(intKey(1_000_000), row, 2); err != nil {
		t.Fatalf("insert into a leaf root of deleted rows: %v", err)
	}
	keys, _ := collectAll(t, m, tree)
	if tree.Height() != 2 || len(keys) != 1 || !bytes.Equal(keys[0], intKey(1_000_000)) {
		t.Fatalf("height %d, %d live keys; want height 2 and only the new key", tree.Height(), len(keys))
	}
}

func TestCollectBatchRangeBoundaries(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	row := bytes.Repeat([]byte("z"), 128)
	n := 4000
	for i := 0; i < n; i++ {
		tree.Insert(intKey(int64(i)), row, 1)
	}
	// Range [1000, 1500]: the batch must include every leaf that could
	// hold those keys and stop well short of the full chain.
	batch, err := tree.CollectBatch(intKey(1000), intKey(1500))
	if err != nil {
		t.Fatal(err)
	}
	full, _ := tree.CollectBatch(nil, nil)
	if len(batch.LeafIDs) >= len(full.LeafIDs) {
		t.Errorf("range batch (%d) should be smaller than full scan (%d)", len(batch.LeafIDs), len(full.LeafIDs))
	}
	// Verify coverage: every key in [1000,1500] lives in a batched leaf.
	inBatch := map[uint64]bool{}
	for _, id := range batch.LeafIDs {
		inBatch[id] = true
	}
	for k := int64(1000); k <= 1500; k++ {
		leafID, err := tree.SeekLeaf(intKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if !inBatch[leafID] {
			t.Fatalf("leaf %d for key %d missing from batch", leafID, k)
		}
	}
}

func TestDuplicateKeysPreserved(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	for i := 0; i < 50; i++ {
		if _, err := tree.Insert(intKey(7), []byte(fmt.Sprintf("dup-%d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	keys, _ := collectAll(t, m, tree)
	if len(keys) != 50 {
		t.Fatalf("got %d duplicate keys", len(keys))
	}
}

// Property: random insert workloads keep the scan sorted and complete,
// across random page pressure (varying row sizes force splits).
func TestTreeInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newMemPager()
		tree, err := Create(m, 1)
		if err != nil {
			return false
		}
		n := 50 + r.Intn(400)
		inserted := map[int64]bool{}
		for i := 0; i < n; i++ {
			k := r.Int63n(10000)
			for inserted[k] {
				k = r.Int63n(10000)
			}
			inserted[k] = true
			row := bytes.Repeat([]byte("r"), 1+r.Intn(300))
			if _, err := tree.Insert(intKey(k), row, 1); err != nil {
				return false
			}
		}
		keys, _ := collectAll(t, m, tree)
		if len(keys) != len(inserted) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if bytes.Compare(keys[i-1], keys[i]) >= 0 {
				return false
			}
		}
		// Every key seeks to a leaf that actually holds it.
		for k := range inserted {
			leafID, err := tree.SeekLeaf(intKey(k))
			if err != nil {
				return false
			}
			pg, err := m.Read(leafID)
			if err != nil {
				return false
			}
			found := false
			pg.Iter(func(rec page.Record) bool {
				kk, _, _ := page.SplitLeafPayload(rec.Payload)
				if bytes.Equal(kk, intKey(k)) {
					found = true
					return false
				}
				return true
			})
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Replaying the redo stream on a fresh page map must produce an identical
// tree — the replication invariant Page Stores depend on.
func TestRedoReplayConvergence(t *testing.T) {
	m := newMemPager()
	tree, _ := Create(m, 1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 800; i++ {
		tree.Insert(intKey(r.Int63n(100000)), bytes.Repeat([]byte("p"), 1+r.Intn(200)), 9)
	}
	// Replay.
	replica := newMemPager()
	for i := range m.applied {
		if _, err := replica.apply(&m.applied[i]); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	if len(replica.pages) != len(m.pages) {
		t.Fatalf("replica has %d pages, primary %d", len(replica.pages), len(m.pages))
	}
	for id, pg := range m.pages {
		if !bytes.Equal(pg.Bytes(), replica.pages[id].Bytes()) {
			t.Fatalf("page %d diverged after replay", id)
		}
	}
}
