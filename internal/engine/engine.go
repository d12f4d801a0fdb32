// Package engine implements the InnoDB-equivalent storage engine on the
// compute node: tables and indexes over B+ trees, redo logging through
// the SAL, the buffer pool, MVCC with undo, and — the heart of the
// paper — regular and NDP index scan cursors. "The InnoDB storage engine
// handles all of the complexities related to NDP scans, and shields the
// SQL executor from NDP" (§IV-C).
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"taurus/internal/buffer"
	"taurus/internal/obs"
	"taurus/internal/page"
	"taurus/internal/sal"
	"taurus/internal/txn"
	"taurus/internal/types"
	"taurus/internal/wal"

	"taurus/internal/btree"
)

// ReadView is the storage view of a read-only frontend (a read
// replica): instead of writing through a SAL, the engine reads pages
// from the shared Page Stores at the replica's visible LSN — the durable
// prefix the replica has confirmed applied by tailing the Log Stores.
type ReadView interface {
	// VisibleLSN is the highest LSN reads may observe right now.
	VisibleLSN() uint64
	// AwaitAbove waits, bounded, for the visible LSN to pass lsn — the
	// statement restart's wait after a SnapshotMissError. It never
	// advances the view itself; only the view's own loop does.
	AwaitAbove(lsn uint64)
	// ReadPage fetches one page image at the given LSN.
	ReadPage(pageID, lsn uint64) ([]byte, error)
	// BatchReadTraced is the NDP batch read at the given LSN, carrying
	// the scan's trace context so per-slice sub-batch RPCs join the
	// scan's fan-out tree.
	BatchReadTraced(pageIDs []uint64, lsn uint64, desc []byte, tc obs.TraceContext) (*sal.BatchResult, error)
	// SliceOf maps a page to its slice — the partitioning key of the
	// parallel scan scheduler. Must match the master's slice mapping.
	SliceOf(pageID uint64) uint32
}

// ErrReadOnly rejects writes on a read-replica engine.
var ErrReadOnly = fmt.Errorf("engine: read-only replica")

// SnapshotMissError is a failed read-replica read at snapshot LSN: the
// page version left the Page Stores' retention, a page (a table's root
// among them) is newer than the snapshot, or the read failed in transit.
// The engine does not retry; the statement restarts once the visible
// LSN passes LSN (ReadView.AwaitAbove).
type SnapshotMissError struct {
	LSN uint64
	Err error
}

func (e *SnapshotMissError) Error() string {
	return fmt.Sprintf("engine: replica read at lsn %d: %v", e.LSN, e.Err)
}

// Config sizes an Engine.
type Config struct {
	// SAL connects to the storage cluster (read-write frontends).
	SAL *sal.SAL
	// ReadView serves a read-only frontend instead: page reads at the
	// replica's visible LSN, every mutation rejected with ErrReadOnly.
	// Exactly one of SAL and ReadView must be set.
	ReadView ReadView
	// PoolPages is the buffer pool capacity in pages (paper setup: 20
	// GB pool for a 100 GB database, i.e. ~20% of data).
	PoolPages int
	// NDPMaxPagesLookAhead bounds both the NDP batch size and the NDP
	// page area, the paper's innodb_ndp_max_pages_look_ahead.
	NDPMaxPagesLookAhead int
	// ScanParallelism is the worker-pool width for partitioned NDP
	// scans (0 = GOMAXPROCS). 1 degenerates to the serial scan.
	ScanParallelism int
	// Tracer, when non-nil, records ndp.scan / per-slice ndp.slice_scan
	// spans for sampled scans.
	Tracer *obs.Tracer
	// Events, when non-nil, receives scan start/finish flight-recorder
	// events.
	Events *obs.EventRing
}

// Engine is one database frontend's storage engine.
type Engine struct {
	salc *sal.SAL
	view ReadView
	pool *buffer.Pool
	txm  *txn.Manager
	undo *txn.UndoLog

	mu         sync.RWMutex
	tables     map[string]*Table
	indexes    map[uint64]*Index
	nextIndex  uint64
	nextPageID atomic.Uint64

	lookAhead int
	scanPar   atomic.Int32

	tracer *obs.Tracer
	events *obs.EventRing

	// Metrics is the SQL-node work ledger backing the CPU-time figures.
	Metrics Metrics
}

// Table is a table with a primary index and optional secondaries.
type Table struct {
	Name        string
	Schema      *types.Schema
	PKCols      []int
	Primary     *Index
	Secondaries []*Index
}

// Index is one B+ tree index.
type Index struct {
	ID   uint64
	Name string
	// Table is the owning table name.
	Table string
	// Schema is the stored row layout of this index: the full table
	// schema for the primary; indexed columns + primary key columns for
	// secondaries.
	Schema *types.Schema
	// KeyCols are ordinals (into Schema) forming the sort key.
	KeyCols []int
	// TableOrds maps index schema ordinals back to table schema
	// ordinals (identity for the primary index).
	TableOrds []int
	Primary   bool
	Tree      *btree.Tree
}

// Metrics counts SQL-node work. The NDP CPU-reduction figures compare
// these with/without pushdown.
type Metrics struct {
	RowsExaminedSQL  atomic.Uint64 // records visibility-checked/decoded on the SQL node
	PredEvalsSQL     atomic.Uint64 // predicate evaluations on the SQL node
	RowsEmitted      atomic.Uint64
	UndoResolutions  atomic.Uint64
	NDPPagesConsumed atomic.Uint64 // NDP pages received and consumed
	SkippedCompleted atomic.Uint64 // pages whose NDP work the frontend completed
	LocalCopies      atomic.Uint64 // buffer-pool copies into the NDP area (I/O avoided)
	AggMergesSQL     atomic.Uint64
	BatchReads       atomic.Uint64
	RegularPageReads atomic.Uint64
}

// MetricsSnapshot is a plain copy for deltas.
type MetricsSnapshot struct {
	RowsExaminedSQL  uint64
	PredEvalsSQL     uint64
	RowsEmitted      uint64
	UndoResolutions  uint64
	NDPPagesConsumed uint64
	SkippedCompleted uint64
	LocalCopies      uint64
	AggMergesSQL     uint64
	BatchReads       uint64
	RegularPageReads uint64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		RowsExaminedSQL:  m.RowsExaminedSQL.Load(),
		PredEvalsSQL:     m.PredEvalsSQL.Load(),
		RowsEmitted:      m.RowsEmitted.Load(),
		UndoResolutions:  m.UndoResolutions.Load(),
		NDPPagesConsumed: m.NDPPagesConsumed.Load(),
		SkippedCompleted: m.SkippedCompleted.Load(),
		LocalCopies:      m.LocalCopies.Load(),
		AggMergesSQL:     m.AggMergesSQL.Load(),
		BatchReads:       m.BatchReads.Load(),
		RegularPageReads: m.RegularPageReads.Load(),
	}
}

// Sub returns s - o.
func (s MetricsSnapshot) Sub(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		RowsExaminedSQL:  s.RowsExaminedSQL - o.RowsExaminedSQL,
		PredEvalsSQL:     s.PredEvalsSQL - o.PredEvalsSQL,
		RowsEmitted:      s.RowsEmitted - o.RowsEmitted,
		UndoResolutions:  s.UndoResolutions - o.UndoResolutions,
		NDPPagesConsumed: s.NDPPagesConsumed - o.NDPPagesConsumed,
		SkippedCompleted: s.SkippedCompleted - o.SkippedCompleted,
		LocalCopies:      s.LocalCopies - o.LocalCopies,
		AggMergesSQL:     s.AggMergesSQL - o.AggMergesSQL,
		BatchReads:       s.BatchReads - o.BatchReads,
		RegularPageReads: s.RegularPageReads - o.RegularPageReads,
	}
}

// New creates an engine over the given SAL (or ReadView, for a read
// replica).
func New(cfg Config) (*Engine, error) {
	if (cfg.SAL == nil) == (cfg.ReadView == nil) {
		return nil, fmt.Errorf("engine: exactly one of SAL and ReadView required")
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 4096
	}
	if cfg.NDPMaxPagesLookAhead <= 0 {
		cfg.NDPMaxPagesLookAhead = buffer.DefaultNDPMaxPagesLookAhead
	}
	e := &Engine{
		salc:      cfg.SAL,
		view:      cfg.ReadView,
		pool:      buffer.New(cfg.PoolPages, cfg.NDPMaxPagesLookAhead),
		txm:       txn.NewManager(),
		undo:      txn.NewUndoLog(),
		tables:    make(map[string]*Table),
		indexes:   make(map[uint64]*Index),
		nextIndex: 1,
		lookAhead: cfg.NDPMaxPagesLookAhead,
		tracer:    cfg.Tracer,
		events:    cfg.Events,
	}
	e.scanPar.Store(int32(cfg.ScanParallelism))
	return e, nil
}

// SetScanParallelism resizes the partitioned-scan worker pool at
// runtime (0 = GOMAXPROCS, 1 = serial).
func (e *Engine) SetScanParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.scanPar.Store(int32(n))
}

// ScanParallelism reports the effective worker-pool width.
func (e *Engine) ScanParallelism() int {
	if n := int(e.scanPar.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Txm exposes the transaction manager.
func (e *Engine) Txm() *txn.Manager { return e.txm }

// Commit ends the transaction and waits until its own log records are
// durable in triplicate on the Log Stores — the paper's commit point.
// The wait target is the transaction's max LSN (tracked record by
// record through the write path), not a global allocator snapshot: a
// committer never waits for LSNs handed out to unrelated concurrent
// writers after its last write. Page Store application continues
// asynchronously; readers of the touched pages wait on applied LSNs,
// not on this commit. Concurrent committers still share a group-commit
// window (and one fsync).
func (e *Engine) Commit(tx *txn.Txn) error {
	tx.Commit()
	if e.salc == nil {
		return ErrReadOnly
	}
	return e.salc.WaitDurableTraced(tx.MaxLSN(), tx.Trace())
}

// ReadView returns a replica engine's storage view (nil on a master).
func (e *Engine) ReadView() ReadView { return e.view }

// Pool exposes the buffer pool (experiments inspect residency).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// SAL exposes the storage abstraction layer.
func (e *Engine) SAL() *sal.SAL { return e.salc }

// LookAhead returns the configured NDP batch size.
func (e *Engine) LookAhead() int { return e.lookAhead }

// pager implements btree.Pager over the SAL + buffer pool.
type pager struct{ e *Engine }

func (p pager) Read(pageID uint64) (*page.Page, error) {
	if v := p.e.view; v != nil {
		// Read-replica miss path: fetch at the replica's visible LSN.
		// The bound plumbed into GetAsOf makes a reader whose visible
		// LSN advanced past an in-flight fetch's re-fetch instead of
		// joining a result bound to the older snapshot. A failed fetch
		// is a SnapshotMissError: this may run under the tree's lock, so
		// it waits for nothing and retries nothing.
		lsn := v.VisibleLSN()
		return p.e.pool.GetAsOf(pageID,
			func() uint64 { return lsn },
			func(id uint64) (*page.Page, error) {
				raw, err := v.ReadPage(id, lsn)
				if err != nil {
					return nil, &SnapshotMissError{LSN: lsn, Err: err}
				}
				return page.FromBytes(raw)
			})
	}
	// The miss path carries a page-level read-your-writes bound: the
	// fetch (ReadPage) waits until the page's staged records are
	// applied, and a racing reader whose writer staged MORE for the
	// page meanwhile re-fetches instead of joining this fetch's result.
	return p.e.pool.GetAsOf(pageID,
		func() uint64 { return p.e.salc.StagedPageLSN(pageID) },
		func(id uint64) (*page.Page, error) {
			raw, err := p.e.salc.ReadPage(id, 0)
			if err != nil {
				return nil, err
			}
			return page.FromBytes(raw)
		})
}

func (p pager) Allocate() uint64 {
	// Page IDs start at 1; 0 is reserved.
	return p.e.nextPageID.Add(1)
}

func (p pager) Apply(rec *wal.Record) (*page.Page, error) {
	if p.e.view != nil {
		return nil, ErrReadOnly
	}
	// Log first (the SAL assigns the LSN and distributes), then apply
	// to the locally cached copy so the compute node sees its own write
	// immediately. The assigned LSN is left in rec.LSN for callers that
	// thread it back to their transaction's commit watermark.
	if _, err := p.e.salc.Write(rec); err != nil {
		return nil, err
	}
	if rec.Type == wal.TypeFormatPage {
		// A new page object, never the pooled one mutated: a reader
		// still holding a raised root's old image keeps reading it.
		pg, err := wal.Format(rec)
		if err != nil {
			return nil, err
		}
		return p.e.pool.Insert(pg), nil
	}
	if pg, ok := p.e.pool.Lookup(rec.PageID); ok {
		if err := wal.Apply(pg, rec); err != nil {
			return nil, err
		}
		return pg, nil
	}
	// Not cached: the authoritative copy in the Page Store applies the
	// record on flush; the next Read refetches.
	return nil, nil
}

func (p pager) CurrentLSN() uint64 {
	if p.e.view != nil {
		return p.e.view.VisibleLSN()
	}
	return p.e.salc.CurrentLSN()
}

// CreateTable registers a table and builds its primary index tree.
func (e *Engine) CreateTable(name string, schema *types.Schema, pkCols []int) (*Table, error) {
	if _, err := e.create(&wal.CatalogEntry{
		Kind: wal.CatalogCreateTable, Table: name, Cols: catalogCols(schema), Ords: pkCols,
	}); err != nil {
		return nil, err
	}
	return e.Table(name)
}

// CreateSecondaryIndex builds a secondary index on the given table
// columns.
func (e *Engine) CreateSecondaryIndex(table, name string, cols []int) (*Index, error) {
	return e.create(&wal.CatalogEntry{
		Kind: wal.CatalogCreateIndex, Table: table, Index: name, Ords: cols,
	})
}

// create runs one DDL statement: it assigns the next index ID, formats
// the tree's root page and then logs the definition, root included, as
// a catalog record (so a restarted frontend or a replica rebuilds its
// data dictionary from the same durable log that rebuilds the pages,
// and finds the root already there), registers both, and waits until
// they are durable. DDL is acknowledged durable: the catalog record's
// LSN covers the root's, and a crash right after create returns must not
// lose the definition. Application to the Page Stores is asynchronous
// like any other write.
func (e *Engine) create(entry *wal.CatalogEntry) (*Index, error) {
	if e.view != nil {
		return nil, ErrReadOnly
	}
	var lsn uint64
	e.mu.Lock()
	entry.IndexID = e.nextIndex
	idx, err := e.register(entry, func() (*btree.Tree, error) {
		// The ID is spent once its root page may be in the log, even if
		// the catalog record then fails.
		e.nextIndex++
		tree, err := btree.Create(pager{e}, entry.IndexID)
		if err != nil {
			return nil, err
		}
		entry.Root = tree.Root()
		lsn, err = e.logCatalog(entry)
		return tree, err
	})
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := e.salc.WaitDurable(lsn); err != nil {
		return nil, err
	}
	return idx, nil
}

// Table returns a registered table.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// Index returns an index by ID.
func (e *Engine) Index(id uint64) (*Index, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	idx, ok := e.indexes[id]
	if !ok {
		return nil, fmt.Errorf("engine: no index %d", id)
	}
	return idx, nil
}

// keyOf encodes the index key for a full-index row.
func (idx *Index) keyOf(dst []byte, row types.Row) []byte {
	for _, k := range idx.KeyCols {
		dst = types.EncodeKey(dst, types.Row{row[k]})
	}
	return dst
}

// rowFor maps a table row into this index's stored layout.
func (idx *Index) rowFor(tableRow types.Row) types.Row {
	if idx.Primary {
		return tableRow
	}
	out := make(types.Row, len(idx.TableOrds))
	for i, o := range idx.TableOrds {
		out[i] = tableRow[o]
	}
	return out
}
