package engine

import (
	"bytes"
	"fmt"

	"taurus/internal/page"
	"taurus/internal/txn"
	"taurus/internal/types"
	"taurus/internal/wal"
)

// Insert adds a row to the table (and all its indexes) under t.
func (e *Engine) Insert(t *Table, tx *txn.Txn, row types.Row) error {
	if e.view != nil {
		return ErrReadOnly
	}
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("engine: row arity %d != schema %d", len(row), t.Schema.Len())
	}
	key := t.Primary.keyOf(nil, row)
	rowBytes := types.EncodeRow(nil, t.Schema, row)
	lsn, err := t.Primary.Tree.Insert(key, rowBytes, tx.ID)
	if err != nil {
		return err
	}
	tx.ObserveLSN(lsn)
	for _, idx := range t.Secondaries {
		irow := idx.rowFor(row)
		ikey := idx.keyOf(nil, irow)
		ibytes := types.EncodeRow(nil, idx.Schema, irow)
		lsn, err := idx.Tree.Insert(ikey, ibytes, tx.ID)
		if err != nil {
			return err
		}
		tx.ObserveLSN(lsn)
	}
	return nil
}

// findInLeaf locates the record with exactly key in the leaf, returning
// its offset (0 if absent).
func findInLeaf(leaf *page.Page, key []byte) int {
	found := 0
	leaf.Iter(func(r page.Record) bool {
		k, _, err := page.SplitLeafPayload(r.Payload)
		if err != nil {
			return false
		}
		switch bytes.Compare(k, key) {
		case 0:
			found = r.Off
			return false
		case 1:
			return false
		}
		return true
	})
	return found
}

// UpdateByPK rewrites the non-key columns of the row with the given
// primary key. The previous version goes to the undo log so older read
// views (and Page-Store-ambiguous records) can be resolved. Updates that
// change secondary-indexed or key columns are rejected — TPC-H is
// read-mostly and the paper's MVCC machinery only needs version churn.
func (e *Engine) UpdateByPK(t *Table, tx *txn.Txn, pk types.Row, newRow types.Row) error {
	if e.view != nil {
		return ErrReadOnly
	}
	key := types.EncodeKey(nil, pk)
	for _, idx := range t.Secondaries {
		for _, o := range idx.TableOrds[:len(idx.TableOrds)-len(t.PKCols)] {
			oldRow, err := e.readRowByPK(t, key)
			if err != nil {
				return err
			}
			if types.Compare(oldRow[o], newRow[o]) != 0 {
				return fmt.Errorf("engine: update would change secondary-indexed column %q", t.Schema.Cols[o].Name)
			}
		}
	}
	for i, k := range t.PKCols {
		if types.Compare(pk[i], newRow[k]) != 0 {
			return fmt.Errorf("engine: update must not change the primary key")
		}
	}
	leaf, err := t.Primary.Tree.ReadLeaf(key)
	if err != nil {
		return err
	}
	leafID := leaf.ID()
	off := findInLeaf(leaf, key)
	if off == 0 {
		return fmt.Errorf("engine: update target not found")
	}
	old := leaf.RecordAt(off)
	_, oldRowBytes, err := page.SplitLeafPayload(old.Payload)
	if err != nil {
		return err
	}
	e.undo.Push(t.Primary.ID, key, txn.UndoRecord{
		TrxID: old.TrxID, Row: append([]byte(nil), oldRowBytes...), Deleted: old.Deleted,
	})
	newBytes := types.EncodeRow(nil, t.Schema, newRow)
	payload := page.EncodeLeafPayload(nil, key, newBytes)
	if !leaf.HasRoomFor(len(payload)) {
		// Reclaim delete-marked space first, then re-locate the target
		// (compaction moves offsets).
		if _, err := (pager{e}).Apply(&wal.Record{Type: wal.TypeCompact, PageID: leafID}); err != nil {
			return err
		}
		leaf, err = pager{e}.Read(leafID)
		if err != nil {
			return err
		}
		off = findInLeaf(leaf, key)
		if off == 0 {
			return fmt.Errorf("engine: update target lost during compaction")
		}
		if !leaf.HasRoomFor(len(payload)) {
			return fmt.Errorf("engine: page %d cannot fit updated row", leafID)
		}
	}
	rec := &wal.Record{
		Type: wal.TypeUpdateRec, PageID: leafID, Off: uint32(off),
		TrxID: tx.ID, Payload: payload,
	}
	if _, err := (pager{e}).Apply(rec); err != nil {
		return err
	}
	// The update record is the operation's last (it follows any
	// compaction), so its LSN is the transaction's watermark for it.
	tx.ObserveLSN(rec.LSN)
	return nil
}

// DeleteByPK delete-marks the row. Older views resolve the pre-delete
// version via undo; Page Stores treat the deleter's trx id like any
// other for ambiguity.
func (e *Engine) DeleteByPK(t *Table, tx *txn.Txn, pk types.Row) error {
	if e.view != nil {
		return ErrReadOnly
	}
	key := types.EncodeKey(nil, pk)
	leaf, err := t.Primary.Tree.ReadLeaf(key)
	if err != nil {
		return err
	}
	leafID := leaf.ID()
	off := findInLeaf(leaf, key)
	if off == 0 {
		return fmt.Errorf("engine: delete target not found")
	}
	old := leaf.RecordAt(off)
	_, oldRowBytes, err := page.SplitLeafPayload(old.Payload)
	if err != nil {
		return err
	}
	e.undo.Push(t.Primary.ID, key, txn.UndoRecord{
		TrxID: old.TrxID, Row: append([]byte(nil), oldRowBytes...), Deleted: old.Deleted,
	})
	if _, err := (pager{e}).Apply(&wal.Record{
		Type: wal.TypeSetTrxID, PageID: leafID, Off: uint32(off), TrxID: tx.ID,
	}); err != nil {
		return err
	}
	rec := &wal.Record{
		Type: wal.TypeDeleteMark, PageID: leafID, Off: uint32(off), Flag: 1,
	}
	if _, err := (pager{e}).Apply(rec); err != nil {
		return err
	}
	// The delete-mark follows the SetTrxID record, so its LSN covers
	// both.
	tx.ObserveLSN(rec.LSN)
	return nil
}

// readRowByPK fetches the current (latest) version of a row.
func (e *Engine) readRowByPK(t *Table, key []byte) (types.Row, error) {
	leaf, err := t.Primary.Tree.ReadLeaf(key)
	if err != nil {
		return nil, err
	}
	off := findInLeaf(leaf, key)
	if off == 0 {
		return nil, fmt.Errorf("engine: row not found")
	}
	_, rowBytes, err := page.SplitLeafPayload(leaf.RecordAt(off).Payload)
	if err != nil {
		return nil, err
	}
	row := make(types.Row, t.Schema.Len())
	if _, err := types.DecodeRow(rowBytes, t.Schema, row); err != nil {
		return nil, err
	}
	return row, nil
}
