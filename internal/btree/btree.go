// Package btree implements the B+ tree that backs every table and index
// access: "An InnoDB table is always accessed by scanning an index
// (primary or secondary) in forward or reverse order" (§IV-A).
//
// Trees are page-based. Interior records are node pointers (key, child
// page id); leaf records hold (key, row) payloads. Leaves are chained
// with prev/next links. The root page never moves: a full root is raised
// in place (InnoDB's rule), so the root page ID a catalog entry records
// at CREATE stays valid for the life of the index, and the height is the
// root page's level + 1. Every structural mutation is expressed as a redo
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
	// TypeFormatPage it creates the page (wal.Format), or replaces an
	// existing one with it. It returns the affected page.
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
	rootID uint64 // fixed at Create; a full root is raised in place
}

// Create builds an empty tree with a fresh leaf root.
func Create(pager Pager, indexID uint64) (*Tree, error) {
	t := &Tree{IndexID: indexID, pager: pager}
	var err error
	if t.rootID, err = t.formatPage(0); err != nil {
		return nil, err
	}
	return t, nil
}

// Attach binds a tree to a root page that already exists in storage —
// recovery and read replicas, where the root comes from the index's
// catalog entry.
func Attach(pager Pager, indexID, rootID uint64) *Tree {
	return &Tree{IndexID: indexID, pager: pager, rootID: rootID}
}

// Root returns the root page ID, fixed for the life of the tree.
func (t *Tree) Root() uint64 { return t.rootID }

// Height returns the tree height, the root page's level + 1 (1 = the
// root is a leaf), or 0 when the root page cannot be read.
func (t *Tree) Height() int {
	pg, err := t.pager.Read(t.rootID)
	if err != nil {
		return 0
	}
	return int(pg.Level()) + 1
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
// interior page, and the level of the path's last page: stopLevel, or
// the root's level when the root is lower. Below the root, the page at
// stopLevel itself is not read. The caller holds t.mu.
func (t *Tree) descendLocked(key []byte, stopLevel int) ([]uint64, int, error) {
	path := []uint64{t.rootID}
	pg, err := t.pager.Read(t.rootID)
	if err != nil {
		return nil, 0, err
	}
	level := int(pg.Level())
	for level > stopLevel {
		child, err := childFor(pg, key)
		if err != nil {
			return nil, 0, err
		}
		path = append(path, child)
		if level--; level > stopLevel {
			if pg, err = t.pager.Read(child); err != nil {
				return nil, 0, err
			}
		}
	}
	return path, level, nil
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
	path, _, err := t.descendLocked(key, 0)
	if err != nil {
		return 0, err
	}
	leaf, err := t.pager.Read(path[len(path)-1])
	if err != nil {
		return 0, err
	}
	payload := page.EncodeLeafPayload(nil, key, row)
	if !leaf.HasRoomFor(len(payload)) && len(path) == 1 {
		// A raise leaves delete-marked records behind, so the new child
		// may already have room.
		if path, err = t.raiseRootLocked(); err != nil {
			return 0, err
		}
		if leaf, err = t.pager.Read(path[1]); err != nil {
			return 0, err
		}
	}
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

// splitLocked splits the leaf at the end of path, below the root
// (splitting ancestors as needed), and returns the leaf that should now
// receive key.
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
			newID, err := t.formatPage(0)
			if err != nil {
				return nil, err
			}
			if err := t.linkSiblings(leafID, newID); err != nil {
				return nil, err
			}
			if err := t.insertNodePtr(path[:len(path)-1], append([]byte(nil), key...), newID); err != nil {
				return nil, err
			}
			return t.pager.Read(newID)
		}
	}
	newLeafID, sepKey, err := t.splitPage(leafID)
	if err != nil {
		return nil, err
	}
	if err := t.insertNodePtr(path[:len(path)-1], sepKey, newLeafID); err != nil {
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
	newID, err := t.formatPage(pg.Level())
	if err != nil {
		return 0, nil, err
	}
	// Move the upper half to the new page, then delete-mark and compact
	// the old page. The separator key must be captured first: record
	// payloads alias the old page's buffer, which Compact rewrites.
	moved := recs[mid:]
	sepKey, err := splitSepKey(pg, moved[0])
	if err != nil {
		return 0, nil, err
	}
	if err := t.moveRecords(moved, newID); err != nil {
		return 0, nil, err
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

// formatPage allocates a page of this index and formats it empty at
// level, returning its ID.
func (t *Tree) formatPage(level uint16) (uint64, error) {
	id := t.pager.Allocate()
	_, err := t.pager.Apply(&wal.Record{
		Type: wal.TypeFormatPage, PageID: id, IndexID: t.IndexID, Level: level,
	})
	return id, err
}

// moveRecords appends the live records of recs, in order, to the page
// dst (append order preserves key order). Delete-marked records stay
// behind, as Compact drops them from the page they leave: an InsertRec
// carries no delete mark, so copying one would bring a deleted row back.
func (t *Tree) moveRecords(recs []page.Record, dst uint64) error {
	for _, r := range recs {
		if r.Deleted {
			continue
		}
		if _, err := t.pager.Apply(&wal.Record{
			Type: wal.TypeInsertRec, PageID: dst, Off: wal.OffAppend,
			RecType: r.Type, TrxID: r.TrxID, Payload: append([]byte(nil), r.Payload...),
		}); err != nil {
			return err
		}
	}
	return nil
}

// raiseRootLocked grows the tree by one level without moving its root:
// the full root's live records move into a fresh child at the root's
// level, then one FormatPage rewrites the root one level up holding a
// single empty-keyed node pointer to that child. A reader at any LSN
// sees either the old root, whole, or the raised one over a filled
// child, and the empty key makes the child cover every key, including
// keys below everything the old root held. Returns the path from the
// root to the child. The caller holds t.mu.
func (t *Tree) raiseRootLocked() ([]uint64, error) {
	root, err := t.pager.Read(t.rootID)
	if err != nil {
		return nil, err
	}
	childID, err := t.formatPage(root.Level())
	if err != nil {
		return nil, err
	}
	if err := t.moveRecords(root.Records(), childID); err != nil {
		return nil, err
	}
	if _, err := t.pager.Apply(&wal.Record{
		Type: wal.TypeFormatPage, PageID: t.rootID, IndexID: t.IndexID, Level: root.Level() + 1,
		Payload: page.EncodeNodePtr(nil, nil, childID),
	}); err != nil {
		return nil, err
	}
	return []uint64{t.rootID, childID}, nil
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

// insertNodePtr inserts a (sepKey -> child) pointer into the interior
// page at the end of path, splitting it (and its ancestors) when full; a
// full root is raised first, so the path never runs out.
func (t *Tree) insertNodePtr(path []uint64, sepKey []byte, child uint64) error {
	payload := page.EncodeNodePtr(nil, sepKey, child)
	parentID := path[len(path)-1]
	parent, err := t.pager.Read(parentID)
	if err != nil {
		return err
	}
	if !parent.HasRoomFor(len(payload)) && len(path) == 1 {
		if path, err = t.raiseRootLocked(); err != nil {
			return err
		}
		parentID = path[1]
		if parent, err = t.pager.Read(parentID); err != nil {
			return err
		}
	}
	if !parent.HasRoomFor(len(payload)) {
		newID, parentSep, err := t.splitPage(parentID)
		if err != nil {
			return err
		}
		if err := t.insertNodePtr(path[:len(path)-1], parentSep, newID); err != nil {
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

// SeekLeaf returns the page ID of the leaf that may contain key; a nil
// key returns the leftmost leaf, the head of the leaf chain. The leaf
// itself is not read, unless it is the root. Once the tree lock is
// released a leaf root may be raised, so callers that read the leaf use
// ReadLeaf.
func (t *Tree) SeekLeaf(key []byte) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	path, _, err := t.descendLocked(key, 0)
	if err != nil {
		return 0, err
	}
	return path[len(path)-1], nil
}

// ReadLeaf reads, outside the tree lock, the leaf SeekLeaf(key) returns.
// Only the root ever changes level, so a page read that is not a leaf is
// a leaf root raised between the descent and the read (on a replica: a
// visible LSN that passed the raise); the descent is repeated and lands
// in the raised root's child.
func (t *Tree) ReadLeaf(key []byte) (*page.Page, error) {
	for {
		id, err := t.SeekLeaf(key)
		if err != nil {
			return nil, err
		}
		pg, err := t.pager.Read(id)
		if err != nil || pg.Level() == 0 {
			return pg, err
		}
	}
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
	path, level, err := t.descendLocked(startKey, 1)
	if err != nil {
		return b, err
	}
	if level == 0 {
		// The root is the only leaf.
		b.LeafIDs = path
		return b, nil
	}
	last := page.InvalidPageID
	if endKey != nil {
		endPath, _, err := t.descendLocked(endKey, 0)
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
