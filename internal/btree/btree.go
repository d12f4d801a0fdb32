// Package btree implements the B+ tree that backs every table and index
// access: "An InnoDB table is always accessed by scanning an index
// (primary or secondary) in forward or reverse order" (§IV-A).
//
// Trees are page-based. Interior records are node pointers (key, child
// page id); leaf records hold (key, row) payloads. Leaves are chained
// with prev/next links. Every structural mutation is expressed as a redo
// log record handed to the Pager, which assigns an LSN, makes the record
// durable, distributes it to the Page Stores hosting the slice, and
// applies it to the locally cached page — so the compute node's view and
// the storage replicas converge on identical page images.
//
// The batch-read machinery of §IV-C4 lives here too: CollectBatch
// traverses the share-locked sub-tree down to level 1, extracts the child
// leaf page IDs within the scan boundaries, and returns them with the LSN
// stamped at collection time.
package btree

import (
	"bytes"
	"fmt"
	"sync"

	"taurus/internal/page"
	"taurus/internal/wal"
)

// Pager supplies pages to the tree and carries mutations to storage.
type Pager interface {
	// Read returns the current cached copy of a page for traversal. The
	// returned page is shared; the tree only mutates it through Apply.
	Read(pageID uint64) (*page.Page, error)
	// Allocate reserves a fresh page ID.
	Allocate() uint64
	// Apply logs the mutation (assigning the record's LSN), applies it
	// to the cached copy, and distributes it to storage. For
	// TypeFormatPage it creates the page. It returns the affected page.
	Apply(rec *wal.Record) (*page.Page, error)
	// CurrentLSN returns the latest assigned LSN; batch reads are
	// stamped with it.
	CurrentLSN() uint64
}

// Tree is one B+ tree (a primary or secondary index).
type Tree struct {
	IndexID uint64

	mu     sync.RWMutex
	pager  Pager
	rootID uint64
	height int // 1 = root is a leaf
}

// Create builds an empty tree with a fresh leaf root.
func Create(pager Pager, indexID uint64) (*Tree, error) {
	t, _, err := CreateAt(pager, indexID)
	return t, err
}

// CreateAt is Create returning also the LSN assigned to the root's
// FormatPage record, so DDL can wait for exactly its own records to
// become durable instead of a global allocator snapshot.
func CreateAt(pager Pager, indexID uint64) (*Tree, uint64, error) {
	rootID := pager.Allocate()
	rec := &wal.Record{
		Type: wal.TypeFormatPage, PageID: rootID, IndexID: indexID, Level: 0,
	}
	if _, err := pager.Apply(rec); err != nil {
		return nil, 0, err
	}
	return &Tree{IndexID: indexID, pager: pager, rootID: rootID, height: 1}, rec.LSN, nil
}

// Attach re-binds a tree to pages that already exist in storage — the
// recovery path, where the root page ID and height are reconstructed
// from the durable log's FormatPage records rather than created fresh.
func Attach(pager Pager, indexID, rootID uint64, height int) *Tree {
	return &Tree{IndexID: indexID, pager: pager, rootID: rootID, height: height}
}

// SetRoot re-binds the tree to a new root page — the read-replica path,
// where a tailed FormatPage record at a higher level announces that the
// master split the root. Height is 1 for a leaf root.
func (t *Tree) SetRoot(rootID uint64, height int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rootID = rootID
	t.height = height
}

// Root returns the current root page ID.
func (t *Tree) Root() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rootID
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// childFor returns the child page to follow from the interior page pg
// toward key: the last node pointer whose separator is <= key, or the
// first pointer when key sorts before every separator. A nil key sorts
// first, so it selects the leftmost child. This is the tree's only
// comparison of a search key with node-pointer separators.
func childFor(pg *page.Page, key []byte) (uint64, error) {
	var child uint64
	found := false
	var err error
	pg.Iter(func(r page.Record) bool {
		k, c, err2 := page.SplitNodePtr(r.Payload)
		if err2 != nil {
			err = err2
			return false
		}
		if found && bytes.Compare(k, key) > 0 {
			return false
		}
		child, found = c, true
		return true
	})
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("btree: interior page %d is empty", pg.ID())
	}
	return child, nil
}

// descendLocked returns the page IDs from the root down to the page at
// stopLevel (0 = leaf) that covers key, following childFor at each
// interior page. The page at stopLevel itself is not read. The caller
// holds t.mu.
func (t *Tree) descendLocked(key []byte, stopLevel int) ([]uint64, error) {
	path := []uint64{t.rootID}
	for level := t.height - 1; level > stopLevel; level-- {
		pg, err := t.pager.Read(path[len(path)-1])
		if err != nil {
			return nil, err
		}
		child, err := childFor(pg, key)
		if err != nil {
			return nil, err
		}
		path = append(path, child)
	}
	return path, nil
}

// Insert adds a (key, row) pair with the given transaction ID. Duplicate
// keys are appended after existing equal keys, preserving insertion order
// among duplicates (secondary indexes append the primary key to make keys
// unique, so exact duplicates only occur transiently).
//
// It returns the LSN assigned to the insert's own log record. LSNs are
// allocated in order and the row record is always the operation's last,
// so this LSN also covers every structural record (splits, sibling
// links, node pointers) the insert caused — waiting for it durably
// covers the whole operation.
func (t *Tree) Insert(key, row []byte, trxID uint64) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path, err := t.descendLocked(key, 0)
	if err != nil {
		return 0, err
	}
	leaf, err := t.pager.Read(path[len(path)-1])
	if err != nil {
		return 0, err
	}
	payload := page.EncodeLeafPayload(nil, key, row)
	if !leaf.HasRoomFor(len(payload)) {
		leaf, err = t.splitLocked(path, key)
		if err != nil {
			return 0, err
		}
		if !leaf.HasRoomFor(len(payload)) {
			return 0, fmt.Errorf("btree: record of %d bytes cannot fit a page", len(payload))
		}
	}
	prev := findInsertPos(leaf, key)
	rec := &wal.Record{
		Type: wal.TypeInsertRec, PageID: leaf.ID(), Off: uint32(prev),
		RecType: page.RecOrdinary, TrxID: trxID, Payload: payload,
	}
	if _, err := t.pager.Apply(rec); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// findInsertPos returns the heap offset of the record after which key
// should be inserted (0 = head).
func findInsertPos(leaf *page.Page, key []byte) int {
	prev := 0
	for off := leaf.FirstRecord(); off != 0; {
		r := leaf.RecordAt(off)
		k, _, err := page.SplitLeafPayload(r.Payload)
		if err != nil || bytes.Compare(k, key) > 0 {
			break
		}
		prev = off
		off = r.Next()
	}
	return prev
}

func lastPos(pg *page.Page) int {
	last := 0
	for off := pg.FirstRecord(); off != 0; {
		r := pg.RecordAt(off)
		last = off
		off = r.Next()
	}
	return last
}

// splitLocked splits the leaf at the end of path (splitting ancestors as
// needed) and returns the leaf that should now receive key.
func (t *Tree) splitLocked(path []uint64, key []byte) (*page.Page, error) {
	leafID := path[len(path)-1]
	leaf, err := t.pager.Read(leafID)
	if err != nil {
		return nil, err
	}
	// Fast path for sorted (bulk) inserts: when the full leaf is the
	// rightmost and the key sorts after everything in it, open a fresh
	// rightmost leaf instead of half-splitting — pages load ~100% full.
	if leaf.NextPage() == page.InvalidPageID {
		if lk, err := lastKeyOf(leaf); err == nil && lk != nil && bytes.Compare(key, lk) >= 0 {
			newID := t.pager.Allocate()
			if _, err := t.pager.Apply(&wal.Record{
				Type: wal.TypeFormatPage, PageID: newID, IndexID: t.IndexID, Level: 0,
			}); err != nil {
				return nil, err
			}
			if err := t.linkSiblings(leafID, newID); err != nil {
				return nil, err
			}
			if err := t.insertNodePtr(path[:len(path)-1], append([]byte(nil), key...), newID, 0); err != nil {
				return nil, err
			}
			return t.pager.Read(newID)
		}
	}
	newLeafID, sepKey, err := t.splitPage(leafID)
	if err != nil {
		return nil, err
	}
	if err := t.insertNodePtr(path[:len(path)-1], sepKey, newLeafID, 0); err != nil {
		return nil, err
	}
	// Decide which half receives the key.
	target := leafID
	if bytes.Compare(key, sepKey) >= 0 {
		target = newLeafID
	}
	return t.pager.Read(target)
}

// splitPage moves the upper half of pg's records to a fresh page,
// returning the new page ID and the separator key (first key of the new
// page). Works for leaves and interior pages.
func (t *Tree) splitPage(pageID uint64) (uint64, []byte, error) {
	pg, err := t.pager.Read(pageID)
	if err != nil {
		return 0, nil, err
	}
	recs := pg.Records()
	if len(recs) < 2 {
		return 0, nil, fmt.Errorf("btree: cannot split page %d with %d records", pageID, len(recs))
	}
	mid := len(recs) / 2
	newID := t.pager.Allocate()
	if _, err := t.pager.Apply(&wal.Record{
		Type: wal.TypeFormatPage, PageID: newID, IndexID: t.IndexID, Level: pg.Level(),
	}); err != nil {
		return 0, nil, err
	}
	// Copy upper half to the new page (append order preserves key
	// order), then delete-mark and compact the old page. The separator
	// key must be captured first: record payloads alias the old page's
	// buffer, which Compact rewrites.
	moved := recs[mid:]
	sepKey, err := splitSepKey(pg, moved[0])
	if err != nil {
		return 0, nil, err
	}
	for _, r := range moved {
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeInsertRec, PageID: newID, Off: wal.OffAppend,
			RecType: r.Type, TrxID: r.TrxID, Payload: append([]byte(nil), r.Payload...),
		}); err != nil {
			return 0, nil, err
		}
	}
	for _, r := range moved {
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeDeleteMark, PageID: pageID, Off: uint32(r.Off), Flag: 1,
		}); err != nil {
			return 0, nil, err
		}
	}
	if _, err := t.pager.Apply(&wal.Record{Type: wal.TypeCompact, PageID: pageID}); err != nil {
		return 0, nil, err
	}
	// Fix the sibling chain links. Leaves need them for range scans;
	// level-1 pages need them so batch collection can walk across
	// level-1 siblings (§IV-C4).
	if err := t.linkSiblings(pageID, newID); err != nil {
		return 0, nil, err
	}
	return newID, sepKey, nil
}

// linkSiblings splices newID into the chain right after oldID.
func (t *Tree) linkSiblings(oldID, newID uint64) error {
	pg, err := t.pager.Read(oldID)
	if err != nil {
		return err
	}
	oldNext := pg.NextPage()
	if _, err := t.pager.Apply(&wal.Record{
		Type: wal.TypeSetLinks, PageID: newID, Prev: oldID, Next: oldNext,
	}); err != nil {
		return err
	}
	if _, err := t.pager.Apply(&wal.Record{
		Type: wal.TypeSetLinks, PageID: oldID, Prev: pg.PrevPage(), Next: newID,
	}); err != nil {
		return err
	}
	if oldNext != page.InvalidPageID {
		nxt, err := t.pager.Read(oldNext)
		if err != nil {
			return err
		}
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeSetLinks, PageID: oldNext, Prev: newID, Next: nxt.NextPage(),
		}); err != nil {
			return err
		}
	}
	return nil
}

func splitSepKey(pg *page.Page, moved page.Record) ([]byte, error) {
	if pg.Level() == 0 {
		k, _, err := page.SplitLeafPayload(moved.Payload)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), k...), nil
	}
	k, _, err := page.SplitNodePtr(moved.Payload)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), k...), nil
}

// insertNodePtr inserts a (sepKey -> child) pointer into the parent at
// the end of path, splitting upward as needed. An empty path means the
// root split: a new root is created one level up.
func (t *Tree) insertNodePtr(path []uint64, sepKey []byte, child uint64, childLevel uint16) error {
	payload := page.EncodeNodePtr(nil, sepKey, child)
	if len(path) == 0 {
		// Root split: new root points at old root and the new child.
		oldRoot := t.rootID
		oldPg, err := t.pager.Read(oldRoot)
		if err != nil {
			return err
		}
		newRootID := t.pager.Allocate()
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeFormatPage, PageID: newRootID, IndexID: t.IndexID, Level: oldPg.Level() + 1,
		}); err != nil {
			return err
		}
		// Leftmost pointer uses the old root's first key.
		firstKey, err := firstKeyOf(oldPg)
		if err != nil {
			return err
		}
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeInsertRec, PageID: newRootID, Off: wal.OffAppend,
			RecType: page.RecNodePtr, Payload: page.EncodeNodePtr(nil, firstKey, oldRoot),
		}); err != nil {
			return err
		}
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeInsertRec, PageID: newRootID, Off: wal.OffAppend,
			RecType: page.RecNodePtr, Payload: payload,
		}); err != nil {
			return err
		}
		t.rootID = newRootID
		t.height++
		return nil
	}
	parentID := path[len(path)-1]
	parent, err := t.pager.Read(parentID)
	if err != nil {
		return err
	}
	if !parent.HasRoomFor(len(payload)) {
		newID, parentSep, err := t.splitPage(parentID)
		if err != nil {
			return err
		}
		if err := t.insertNodePtr(path[:len(path)-1], parentSep, newID, parent.Level()); err != nil {
			return err
		}
		if bytes.Compare(sepKey, parentSep) >= 0 {
			parentID = newID
		}
		parent, err = t.pager.Read(parentID)
		if err != nil {
			return err
		}
	}
	prev := findNodeInsertPos(parent, sepKey)
	_, err = t.pager.Apply(&wal.Record{
		Type: wal.TypeInsertRec, PageID: parentID, Off: uint32(prev),
		RecType: page.RecNodePtr, Payload: payload,
	})
	return err
}

func findNodeInsertPos(pg *page.Page, key []byte) int {
	prev := 0
	for off := pg.FirstRecord(); off != 0; {
		r := pg.RecordAt(off)
		k, _, err := page.SplitNodePtr(r.Payload)
		if err != nil || bytes.Compare(k, key) > 0 {
			break
		}
		prev = off
		off = r.Next()
	}
	return prev
}

func lastKeyOf(pg *page.Page) ([]byte, error) {
	last := lastPos(pg)
	if last == 0 {
		return nil, nil
	}
	r := pg.RecordAt(last)
	if pg.Level() == 0 {
		k, _, err := page.SplitLeafPayload(r.Payload)
		return append([]byte(nil), k...), err
	}
	k, _, err := page.SplitNodePtr(r.Payload)
	return append([]byte(nil), k...), err
}

func firstKeyOf(pg *page.Page) ([]byte, error) {
	off := pg.FirstRecord()
	if off == 0 {
		return nil, nil // empty page: empty key sorts first
	}
	r := pg.RecordAt(off)
	if pg.Level() == 0 {
		k, _, err := page.SplitLeafPayload(r.Payload)
		return append([]byte(nil), k...), err
	}
	k, _, err := page.SplitNodePtr(r.Payload)
	return append([]byte(nil), k...), err
}

// SeekLeaf returns the page ID of the leaf that may contain key; a nil
// key returns the leftmost leaf, the head of the leaf chain. The leaf
// itself is not read.
func (t *Tree) SeekLeaf(key []byte) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	path, err := t.descendLocked(key, 0)
	if err != nil {
		return 0, err
	}
	return path[len(path)-1], nil
}

// Batch is the result of a batch-read collection (§IV-C4): every leaf
// page ID in the scan boundary, in leaf-chain order, plus the LSN
// stamped while the tree was share-locked. "The Page Store only returns
// those page versions matching the LSN value, and thus, the batch read
// is shielded from the concurrent B-tree modifications."
type Batch struct {
	LeafIDs []uint64
	LSN     uint64
}

// CollectBatch returns, in one call, every leaf that may hold a key in
// [startKey, endKey]: the contiguous run of the leaf chain from
// SeekLeaf(startKey) to SeekLeaf(endKey), or to the chain's end when
// endKey is nil. There is no page limit and no resume; the caller chunks
// the list into batch reads. Under the tree's shared lock it stamps the
// current LSN, descends to the level-1 page covering startKey (and to
// endKey's leaf ID, if bounded), walks the level-1 sibling chain reading
// child IDs from node pointers (no leaf is read) and releases — the
// caller then batch-reads at that LSN without blocking writers.
//
// "A batch read is aware of scan boundaries ... the batch read will not
// read leaf pages beyond the range because level-1 pages store
// 'boundary' values" (§IV-C4).
func (t *Tree) CollectBatch(startKey, endKey []byte) (Batch, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b := Batch{LSN: t.pager.CurrentLSN()}
	if endKey != nil && bytes.Compare(startKey, endKey) > 0 {
		return b, nil
	}
	if t.height == 1 {
		// Root is the only leaf.
		b.LeafIDs = []uint64{t.rootID}
		return b, nil
	}
	path, err := t.descendLocked(startKey, 1)
	if err != nil {
		return b, err
	}
	last := page.InvalidPageID
	if endKey != nil {
		endPath, err := t.descendLocked(endKey, 0)
		if err != nil {
			return b, err
		}
		last = endPath[len(endPath)-1]
	}
	// Walk level-1 siblings from startKey's leaf through endKey's.
	var first uint64
	for cur := path[len(path)-1]; cur != page.InvalidPageID; {
		pg, err := t.pager.Read(cur)
		if err != nil {
			return b, err
		}
		if cur == path[len(path)-1] {
			if first, err = childFor(pg, startKey); err != nil {
				return b, err
			}
		}
		pg.Iter(func(r page.Record) bool {
			_, child, err2 := page.SplitNodePtr(r.Payload)
			if err2 != nil {
				err = err2
				return false
			}
			if child == first || len(b.LeafIDs) > 0 {
				b.LeafIDs = append(b.LeafIDs, child)
			}
			return child != last
		})
		if err != nil {
			return b, err
		}
		if n := len(b.LeafIDs); n > 0 && b.LeafIDs[n-1] == last {
			break
		}
		cur = pg.NextPage()
	}
	return b, nil
}
