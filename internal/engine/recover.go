package engine

import (
	"fmt"
	"sort"

	"taurus/internal/btree"
	"taurus/internal/pstore"
	"taurus/internal/types"
	"taurus/internal/wal"
)

// catalogCols converts a schema into the wal-level catalog columns.
func catalogCols(schema *types.Schema) []wal.CatalogCol {
	out := make([]wal.CatalogCol, schema.Len())
	for i, c := range schema.Cols {
		out[i] = wal.CatalogCol{
			Name: c.Name, Kind: uint8(c.Kind),
			FixedLen: uint32(c.FixedLen), AvgLen: uint32(c.AvgLen),
			NotNull: c.NotNull,
		}
	}
	return out
}

// schemaOf converts catalog columns back into a schema.
func schemaOf(cols []wal.CatalogCol) *types.Schema {
	out := make([]types.Column, len(cols))
	for i, c := range cols {
		out[i] = types.Column{
			Name: c.Name, Kind: types.Kind(c.Kind),
			FixedLen: int(c.FixedLen), AvgLen: int(c.AvgLen),
			NotNull: c.NotNull,
		}
	}
	return types.NewSchema(out...)
}

// logCatalog writes a durable catalog record through the SAL,
// returning its assigned LSN.
func (e *Engine) logCatalog(entry *wal.CatalogEntry) (uint64, error) {
	return e.salc.Write(&wal.Record{Type: wal.TypeCatalog, Payload: entry.EncodeCatalog(nil)})
}

// register is the data dictionary's one constructor: it checks a
// catalog entry against the registered tables, builds its Index (and,
// for a CREATE TABLE, its Table) on the tree newTree returns, fills the
// maps and raises the index-ID allocator past it. newTree runs only
// once the entry checked out, so DDL logs nothing for a bad
// definition. Caller holds e.mu.
func (e *Engine) register(entry *wal.CatalogEntry, newTree func() (*btree.Tree, error)) (*Index, error) {
	idx := &Index{ID: entry.IndexID, Table: entry.Table}
	var t *Table
	switch entry.Kind {
	case wal.CatalogCreateTable:
		if _, ok := e.tables[entry.Table]; ok {
			return nil, fmt.Errorf("engine: table %q exists", entry.Table)
		}
		if len(entry.Ords) == 0 {
			return nil, fmt.Errorf("engine: table %q needs a primary key", entry.Table)
		}
		schema := schemaOf(entry.Cols)
		if err := checkOrds(entry.Table, entry.Ords, schema); err != nil {
			return nil, err
		}
		idx.Name, idx.Schema, idx.Primary = entry.Table+"_pk", schema, true
		idx.KeyCols, idx.TableOrds = entry.Ords, identity(schema.Len())
		t = &Table{Name: entry.Table, Schema: schema, PKCols: entry.Ords, Primary: idx}
	case wal.CatalogCreateIndex:
		if t = e.tables[entry.Table]; t == nil {
			return nil, fmt.Errorf("engine: no table %q", entry.Table)
		}
		if err := checkOrds(entry.Index, entry.Ords, t.Schema); err != nil {
			return nil, err
		}
		// The stored layout is (indexed columns..., primary key
		// columns...) and the sort key is the whole layout, making
		// entries unique — InnoDB's secondary index structure.
		idx.Name = entry.Index
		idx.TableOrds = append(append([]int(nil), entry.Ords...), t.PKCols...)
		cols := make([]types.Column, len(idx.TableOrds))
		for i, o := range idx.TableOrds {
			cols[i] = t.Schema.Cols[o]
		}
		idx.Schema, idx.KeyCols = types.NewSchema(cols...), identity(len(cols))
	default:
		return nil, fmt.Errorf("engine: catalog kind %d defines no index", entry.Kind)
	}
	tree, err := newTree()
	if err != nil {
		return nil, err
	}
	idx.Tree = tree
	if idx.Primary {
		e.tables[t.Name] = t
	} else {
		t.Secondaries = append(t.Secondaries, idx)
	}
	e.indexes[idx.ID] = idx
	if idx.ID >= e.nextIndex {
		e.nextIndex = idx.ID + 1
	}
	return idx, nil
}

// checkOrds rejects a column ordinal outside the schema.
func checkOrds(name string, ords []int, schema *types.Schema) error {
	for _, o := range ords {
		if o < 0 || o >= schema.Len() {
			return fmt.Errorf("engine: %q: bad column ordinal %d", name, o)
		}
	}
	return nil
}

// identity returns the ordinals 0..n-1.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RecoveryStats summarizes one RecoverFrom merge.
type RecoveryStats struct {
	// Tables names the tables the merge registered, in catalog order;
	// Indexes counts the secondary indexes it registered.
	Tables  []string
	Indexes int
	// Records is the total log records scanned.
	Records int
	// MaxTrxID is the highest transaction ID observed.
	MaxTrxID uint64
}

// CheckpointBase snapshots the data dictionary (each entry with its
// index's root) and the page, index and transaction allocators as the
// meta checkpoint RecoverFrom merges back. Catalog entries come in
// creation order: tables by primary index ID, each followed by its
// secondaries.
// AppliedLSN is left to the caller, because the SAL owns the cluster
// watermark.
func (e *Engine) CheckpointBase() *pstore.Meta {
	e.mu.RLock()
	defer e.mu.RUnlock()
	base := &pstore.Meta{
		MaxTrxID:   e.txm.Current(),
		MaxPageID:  e.nextPageID.Load(),
		MaxIndexID: e.nextIndex - 1,
	}
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Primary.ID < tables[j].Primary.ID })
	add := func(entry *wal.CatalogEntry) {
		base.Catalog = append(base.Catalog, entry.EncodeCatalog(nil))
	}
	for _, t := range tables {
		add(&wal.CatalogEntry{
			Kind: wal.CatalogCreateTable, IndexID: t.Primary.ID, Root: t.Primary.Tree.Root(),
			Table: t.Name, Cols: catalogCols(t.Schema), Ords: t.PKCols,
		})
		secs := append([]*Index(nil), t.Secondaries...)
		sort.Slice(secs, func(i, j int) bool { return secs[i].ID < secs[j].ID })
		for _, idx := range secs {
			add(&wal.CatalogEntry{
				Kind: wal.CatalogCreateIndex, IndexID: idx.ID, Root: idx.Tree.Root(),
				Table: t.Name, Index: idx.Name,
				Ords: idx.TableOrds[:len(idx.TableOrds)-len(t.PKCols)],
			})
		}
	}
	return base
}

// RecoverFrom merges a checkpoint base (nil for none) and the log
// records above it into the data dictionary. It is the one way a
// catalog enters an engine: master recovery, a replica's bootstrap, its
// checkpoint rebase and its streamed DDL all call it, on an engine that
// may already hold part of what they bring. The merge rules:
//
//   - Every catalog entry whose index ID is not registered yet is
//     registered, the base's first and then the tail's in log order,
//     and attached at the root page its entry records (roots never
//     move, and a root is logged before its entry); an ID that is
//     already registered (in the engine, or earlier in the same call)
//     is skipped, so merging the same input twice changes nothing.
//   - The page, index and transaction allocators only rise, to the
//     highest IDs the base and the records mention.
//
// The page images themselves are rebuilt separately, by replaying the
// same records through the Page Store apply path (sal.Replay).
func (e *Engine) RecoverFrom(base *pstore.Meta, recs []wal.Record) (RecoveryStats, error) {
	st := RecoveryStats{Records: len(recs)}
	var entries []*wal.CatalogEntry
	var maxPage, maxIndex uint64
	addEntry := func(payload []byte) error {
		entry, err := wal.DecodeCatalog(payload)
		if err != nil {
			return fmt.Errorf("engine: recovering catalog: %w", err)
		}
		entries = append(entries, entry)
		maxIndex = max(maxIndex, entry.IndexID)
		return nil
	}
	if base != nil {
		st.MaxTrxID = base.MaxTrxID
		maxPage, maxIndex = base.MaxPageID, base.MaxIndexID
		for _, payload := range base.Catalog {
			if err := addEntry(payload); err != nil {
				return st, err
			}
		}
	}
	for i := range recs {
		rec := &recs[i]
		st.MaxTrxID = max(st.MaxTrxID, rec.TrxID)
		maxPage = max(maxPage, rec.PageID)
		// A root formatted by a DDL that crashed before its catalog
		// record still spent its index ID.
		maxIndex = max(maxIndex, rec.IndexID)
		if rec.Type == wal.TypeCatalog {
			if err := addEntry(rec.Payload); err != nil {
				return st, err
			}
		}
	}
	e.txm.Advance(st.MaxTrxID)
	for cur := e.nextPageID.Load(); cur < maxPage && !e.nextPageID.CompareAndSwap(cur, maxPage); {
		cur = e.nextPageID.Load()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if maxIndex >= e.nextIndex {
		e.nextIndex = maxIndex + 1
	}
	for _, entry := range entries {
		if _, ok := e.indexes[entry.IndexID]; ok {
			continue
		}
		_, err := e.register(entry, func() (*btree.Tree, error) {
			return btree.Attach(pager{e}, entry.IndexID, entry.Root), nil
		})
		if err != nil {
			return st, err
		}
		if entry.Kind == wal.CatalogCreateTable {
			st.Tables = append(st.Tables, entry.Table)
		} else {
			st.Indexes++
		}
	}
	return st, nil
}

// Tables lists the registered table names (recovery reporting, stats
// refresh after restart).
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for name := range e.tables {
		out = append(out, name)
	}
	return out
}
