package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/core"
	"taurus/internal/core/ir"
	"taurus/internal/expr"
	"taurus/internal/obs"
	"taurus/internal/page"
	"taurus/internal/sal"
	"taurus/internal/txn"
	"taurus/internal/types"
)

// ErrStopScan may be returned by an EmitFunc to end the scan early
// (LIMIT); Scan then returns nil.
var ErrStopScan = errors.New("engine: stop scan")

// NDPPush describes the pushdowns requested for an NDP scan. The three
// decisions — projection, predicate, aggregation — "are taken
// independently" (§III).
type NDPPush struct {
	// PushPredicate ships ScanOptions.Predicate to Page Stores as IR.
	PushPredicate bool
	// PushProjection ships ScanOptions.Projection.
	PushProjection bool
	// Aggs are the pushed aggregates (arg ordinals in the scan's output
	// layout). Empty means no NDP aggregation.
	Aggs []core.AggSpec
	// GroupBy are grouping ordinals in the output layout; the planner
	// guarantees the index satisfies the grouping order.
	GroupBy []int
}

// ScanOptions parameterize one index scan.
type ScanOptions struct {
	Index *Index
	// Start/End are inclusive encoded key bounds; nil = open. Bounds
	// position the scan; row-level range filtering is the predicate's
	// job (the planner derives bounds from predicate conjuncts and
	// keeps the full predicate).
	Start, End []byte
	// View is the MVCC read view.
	View *txn.ReadView
	// Predicate is the pushed-to-storage-engine condition ("classical"
	// pushdown); ordinals refer to the index schema. The scan always
	// applies it to rows it processes on the SQL node; with
	// NDP.PushPredicate it is also evaluated in Page Stores.
	Predicate *expr.Expr
	// Projection lists output ordinals into the index schema; empty
	// emits full index rows.
	Projection []int
	// NDP enables the NDP scan path (nil = regular InnoDB-style scan,
	// one page read at a time, no batch reads).
	NDP *NDPPush
	// Trace, when valid, is the sampled trace the scan's spans and
	// batch-read RPCs attach to.
	Trace obs.TraceContext
}

// EmitFunc receives scan output. For NDP aggregate records, states holds
// the partial aggregation attached to the row: the executor merges it and
// then processes row normally ("InnoDB then calls the SQL executor's
// appropriate aggregation function and provides the special value",
// §V-C). states is nil for plain rows.
//
// row aliases scan-internal buffers and is only valid until the callback
// returns; Clone it to retain (hash join builds, sorts).
type EmitFunc func(row types.Row, states []core.AggState) error

// Scan runs a forward index scan, regular or NDP.
func (e *Engine) Scan(opts ScanOptions, emit EmitFunc) error {
	if opts.Index == nil {
		return fmt.Errorf("engine: scan needs an index")
	}
	if opts.View == nil {
		opts.View = e.txm.View(nil)
	}
	if opts.NDP != nil {
		err := e.ndpScan(opts, emit)
		if errors.Is(err, ErrStopScan) {
			return nil
		}
		return err
	}
	err := e.regularScan(opts, emit)
	if errors.Is(err, ErrStopScan) {
		return nil
	}
	return err
}

// scanState bundles per-scan reusable buffers.
type scanState struct {
	opts    ScanOptions
	emit    EmitFunc
	fullRow types.Row
	outRow  types.Row
	outOrds []int
	proc    *core.Processor // NDP record decoding (NDP scans only)
}

func newScanState(opts ScanOptions, emit EmitFunc) *scanState {
	s := &scanState{
		opts:    opts,
		emit:    emit,
		fullRow: make(types.Row, opts.Index.Schema.Len()),
	}
	if len(opts.Projection) > 0 {
		s.outOrds = opts.Projection
		s.outRow = make(types.Row, len(opts.Projection))
	}
	return s
}

// project maps a full index row to the output layout.
func (s *scanState) project(row types.Row) types.Row {
	if s.outOrds == nil {
		return row
	}
	for i, o := range s.outOrds {
		s.outRow[i] = row[o]
	}
	return s.outRow
}

// processFullRecord applies the complete frontend pipeline (visibility,
// undo, predicate, projection) to a regular record and emits it. Used by
// regular scans, skipped pages, buffer-pool copies, and ambiguous
// records — the four §V-B1 cases where "InnoDB may [evaluate NDP
// predicates] by calling SQL executor functions".
func (e *Engine) processFullRecord(s *scanState, rec page.Record, key, rowBytes []byte) error {
	e.Metrics.RowsExaminedSQL.Add(1)
	view := s.opts.View
	visible := view.Visible(rec.TrxID)
	deleted := rec.Deleted
	if !visible {
		e.Metrics.UndoResolutions.Add(1)
		u, ok := e.undo.Resolve(s.opts.Index.ID, key, view)
		if !ok {
			return nil // row does not exist for this view
		}
		if u.Deleted {
			return nil
		}
		rowBytes = u.Row
		deleted = false
	}
	if deleted {
		return nil
	}
	if _, err := types.DecodeRow(rowBytes, s.opts.Index.Schema, s.fullRow); err != nil {
		return err
	}
	if s.opts.Predicate != nil {
		e.Metrics.PredEvalsSQL.Add(1)
		if !s.opts.Predicate.EvalBool(s.fullRow) {
			return nil
		}
	}
	e.Metrics.RowsEmitted.Add(1)
	return s.emit(s.project(s.fullRow), nil)
}

// regularScan walks the leaf chain one page at a time through the buffer
// pool — "a regular InnoDB scan does not perform batch reads" (§I) — so
// every missed page costs one full-page network read and lands in the
// shared buffer pool (warming it, unlike NDP pages; cf. the Q4
// experiment, §VII-D).
func (e *Engine) regularScan(opts ScanOptions, emit EmitFunc) error {
	s := newScanState(opts, emit)
	pg, err := opts.Index.Tree.ReadLeaf(opts.Start)
	if err != nil {
		return err
	}
	for {
		e.Metrics.RegularPageReads.Add(1)
		var pageErr error
		done := false
		pg.Iter(func(rec page.Record) bool {
			key, rowBytes, err := page.SplitLeafPayload(rec.Payload)
			if err != nil {
				pageErr = err
				return false
			}
			if opts.Start != nil && strings.Compare(string(key), string(opts.Start)) < 0 {
				return true
			}
			if opts.End != nil && strings.Compare(string(key), string(opts.End)) > 0 {
				done = true
				return false
			}
			if err := e.processFullRecord(s, rec, key, rowBytes); err != nil {
				pageErr = err
				return false
			}
			return true
		})
		if pageErr != nil {
			return pageErr
		}
		if done || pg.NextPage() == page.InvalidPageID {
			return nil
		}
		if pg, err = (pager{e}).Read(pg.NextPage()); err != nil {
			return err
		}
	}
}

// batchRead routes an NDP batch read through the SAL (read-write
// frontend) or the replica's read view.
func (e *Engine) batchRead(pageIDs []uint64, lsn uint64, desc []byte, tc obs.TraceContext) (*sal.BatchResult, error) {
	if e.view != nil {
		return e.view.BatchReadTraced(pageIDs, lsn, desc, tc)
	}
	return e.salc.BatchReadTraced(pageIDs, lsn, desc, tc)
}

// sliceOf maps a page to its slice through whichever storage view the
// engine has.
func (e *Engine) sliceOf(pageID uint64) uint32 {
	if e.view != nil {
		return e.view.SliceOf(pageID)
	}
	return e.salc.SliceOf(pageID)
}

// buildDescriptor assembles the NDP descriptor for this scan (§IV-C1).
func (e *Engine) buildDescriptor(opts ScanOptions) (*core.Descriptor, error) {
	idx := opts.Index
	d := &core.Descriptor{
		IndexID:      idx.ID,
		Cols:         make([]types.Kind, idx.Schema.Len()),
		FixedLens:    make([]uint16, idx.Schema.Len()),
		LowWatermark: opts.View.Low,
	}
	for i, c := range idx.Schema.Cols {
		d.Cols[i] = c.Kind
		d.FixedLens[i] = uint16(c.FixedLen)
	}
	ndp := opts.NDP
	if ndp.PushProjection && len(opts.Projection) > 0 {
		d.Projection = make([]uint16, len(opts.Projection))
		for i, o := range opts.Projection {
			d.Projection[i] = uint16(o)
		}
	}
	if ndp.PushPredicate && opts.Predicate != nil {
		prog, err := ir.Compile(opts.Predicate, idx.Schema.Len())
		if err != nil {
			return nil, fmt.Errorf("engine: predicate not NDP-compilable: %w", err)
		}
		d.Predicate = prog.Encode()
	}
	d.Aggs = ndp.Aggs
	if len(ndp.GroupBy) > 0 {
		d.GroupBy = make([]uint16, len(ndp.GroupBy))
		for i, g := range ndp.GroupBy {
			d.GroupBy[i] = uint16(g)
		}
	}
	return d, nil
}

// ndpSetup is what every NDP scan prepares before its first batch
// read: the options with the read view defaulted, the compiled
// descriptor and its encoding, and the in-range leaf list with its LSN
// stamp.
type ndpSetup struct {
	opts      ScanOptions
	proc      *core.Processor
	descBytes []byte
	leafIDs   []uint64
	lsn       uint64
}

// prepareNDP is the prologue the serial NDP cursor and PrepareNDPScan
// share. It collects the full in-range leaf list once, under the shared
// tree lock, with one LSN stamp (§IV-C4).
func (e *Engine) prepareNDP(opts ScanOptions) (*ndpSetup, error) {
	if opts.Index == nil {
		return nil, fmt.Errorf("engine: scan needs an index")
	}
	if opts.View == nil {
		opts.View = e.txm.View(nil)
	}
	if opts.NDP == nil {
		return nil, fmt.Errorf("engine: NDP scan requires NDP options")
	}
	if len(opts.NDP.Aggs) > 0 && opts.NDP.PushProjection != (len(opts.Projection) > 0) {
		return nil, fmt.Errorf("engine: pushed aggregation requires pushed projection to agree with the output layout")
	}
	desc, err := e.buildDescriptor(opts)
	if err != nil {
		return nil, err
	}
	proc, err := core.NewProcessorFromDescriptor(desc)
	if err != nil {
		return nil, err
	}
	batch, err := opts.Index.Tree.CollectBatch(opts.Start, opts.End)
	if err != nil {
		return nil, err
	}
	return &ndpSetup{opts: opts, proc: proc, descBytes: desc.Encode(), leafIDs: batch.LeafIDs, lsn: batch.LSN}, nil
}

// ndpScan is the NDP scan cursor of §IV-C4: collect leaf page IDs from
// level-1 pages under the share-locked sub-tree, stamp the LSN, release
// the locks, then issue batch reads through the SAL; consume NDP pages,
// complete skipped work, and resolve ambiguous records. Client-side
// chunking into look-ahead sized batch reads bounds the NDP page area
// exactly as innodb_ndp_max_pages_look_ahead does.
func (e *Engine) ndpScan(opts ScanOptions, emit EmitFunc) error {
	n, err := e.prepareNDP(opts)
	if err != nil {
		return err
	}
	s := newScanState(n.opts, emit)
	s.proc = n.proc
	return e.scanChunks(s, n.leafIDs, n.lsn, n.descBytes, e.lookAhead, n.opts.Trace, nil)
}

// scanChunks runs the §IV-C4 chunked batch-read loop over one ordered
// leaf list — the whole scan when serial, one slice partition when
// fanned out. stop, when non-nil, is the partitioned scan's shared
// cancel flag: a sibling partition's error ends this one at the next
// chunk boundary.
func (e *Engine) scanChunks(s *scanState, leafIDs []uint64, lsn uint64, descBytes []byte, lookAhead int, tc obs.TraceContext, stop *atomic.Bool) error {
	for base := 0; base < len(leafIDs); base += lookAhead {
		if stop != nil && stop.Load() {
			return nil
		}
		chunk := leafIDs[base:min(base+lookAhead, len(leafIDs))]
		// Buffer-pool check (§IV-C4): cached pages are copied to the
		// NDP page area instead of being read over the network.
		cached := make(map[uint64]*page.Page)
		missing := make([]uint64, 0, len(chunk))
		for _, id := range chunk {
			// A cached page that is no longer a leaf is a leaf root
			// raised since collection; the stamped LSN still reads
			// the leaf.
			if pg, ok := e.pool.Lookup(id); ok && pg.Level() == 0 {
				cached[id] = pg.Clone()
				e.Metrics.LocalCopies.Add(1)
			} else {
				missing = append(missing, id)
			}
		}
		fetched := make(map[uint64][]byte, len(missing))
		if len(missing) > 0 {
			e.Metrics.BatchReads.Add(1)
			res, err := e.batchRead(missing, lsn, descBytes, tc)
			if err != nil {
				// A replica must never read past its snapshot: the
				// statement restarts instead (SnapshotMissError).
				if e.view != nil {
					return &SnapshotMissError{LSN: lsn, Err: err}
				}
				// The stamped version may have aged out of the Page
				// Stores' retention under heavy concurrent writes; retry
				// at latest. Row visibility is still governed by MVCC,
				// so results remain correct.
				if res, err = e.salc.BatchReadTraced(missing, 0, descBytes, tc); err != nil {
					return err
				}
			}
			for i, id := range missing {
				fetched[id] = res.Pages[i]
			}
		}
		for _, id := range chunk {
			if err := e.pool.AllocNDP(); err != nil {
				return err
			}
			err := func() error {
				defer e.pool.ReleaseNDP()
				if pg, ok := cached[id]; ok {
					// Case 4 of §V-B1: NDP page copied from a cached
					// regular page; the frontend does all NDP work.
					e.Metrics.SkippedCompleted.Add(1)
					return e.consumeRegularAsNDP(s, pg)
				}
				pg, err := page.FromBytes(fetched[id])
				if err != nil {
					return err
				}
				return e.consumeNDPPage(s, pg)
			}()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// PartitionedScan is a prepared NDP scan split into per-slice
// partitions. Each partition is the in-range leaf subsequence of one
// slice, in key order; consecutive leaves share slices (page IDs are
// allocated roughly sequentially), so partitions map onto distinct
// Page Store replica sets and fan out across the storage fleet.
//
// Row order within a partition matches the serial scan; order ACROSS
// partitions is the caller's job (NDPAggScan re-merges grouped partials
// by key), which is why only order-insensitive consumers use this path.
type PartitionedScan struct {
	e *Engine
	ndpSetup
	parts []scanPartition
}

// scanPartition is one slice's contiguous, key-ordered leaf run.
type scanPartition struct {
	slice   uint32
	leafIDs []uint64
}

// PrepareNDPScan collects and stamps the scan's leaf list once (shared
// tree lock, one LSN — exactly like the serial cursor) and partitions
// it by slice for parallel dispatch.
func (e *Engine) PrepareNDPScan(opts ScanOptions) (*PartitionedScan, error) {
	setup, err := e.prepareNDP(opts)
	if err != nil {
		return nil, err
	}
	p := &PartitionedScan{e: e, ndpSetup: *setup}
	for _, id := range setup.leafIDs {
		sliceID := e.sliceOf(id)
		if n := len(p.parts); n > 0 && p.parts[n-1].slice == sliceID {
			p.parts[n-1].leafIDs = append(p.parts[n-1].leafIDs, id)
		} else {
			p.parts = append(p.parts, scanPartition{slice: sliceID, leafIDs: []uint64{id}})
		}
	}
	return p, nil
}

// Parts reports how many per-slice partitions the scan fans out into.
func (p *PartitionedScan) Parts() int { return len(p.parts) }

// LSN is the scan's stamped read LSN: on a replica it was taken from
// the visible LSN and reads never go past it.
func (p *PartitionedScan) LSN() uint64 { return p.lsn }

// Run dispatches the partitions across a bounded worker pool and waits
// for them all. emitFor returns partition i's sink; partitions run
// concurrently, so distinct sinks must not share state. The per-worker
// chunk size divides the scan's look-ahead by the pool width so the
// concurrent NDP page area stays within the serial scan's bound.
func (p *PartitionedScan) Run(emitFor func(part int) EmitFunc) error {
	e := p.e
	if len(p.parts) == 0 {
		return nil
	}
	workers := e.ScanParallelism()
	if workers > len(p.parts) {
		workers = len(p.parts)
	}
	if workers < 1 {
		workers = 1
	}
	perLook := e.lookAhead
	if workers > 1 {
		if perLook = e.lookAhead / workers; perLook < 1 {
			perLook = 1
		}
	}
	tc := p.opts.Trace
	var root *obs.SpanHandle
	if e.tracer != nil && tc.Valid() {
		root = e.tracer.StartSpan(tc, "ndp.scan")
		root.Annotate("index=%s partitions=%d parallelism=%d lsn=%d",
			p.opts.Index.Name, len(p.parts), workers, p.lsn)
		tc = root.Context()
	}
	e.events.Record(obs.EventScanStart, "index %s: %d slice partitions, %d workers, lsn %d",
		p.opts.Index.Name, len(p.parts), workers, p.lsn)
	t0 := time.Now()

	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if stop.Load() {
					continue
				}
				part := p.parts[i]
				ptc := tc
				var span *obs.SpanHandle
				if e.tracer != nil && tc.Valid() {
					span = e.tracer.StartSpan(tc, "ndp.slice_scan")
					span.Annotate("slice=%d leaves=%d", part.slice, len(part.leafIDs))
					ptc = span.Context()
				}
				s := newScanState(p.opts, emitFor(i))
				s.proc = p.proc
				err := e.scanChunks(s, part.leafIDs, p.lsn, p.descBytes, perLook, ptc, &stop)
				span.End()
				if err != nil {
					if errors.Is(err, ErrStopScan) {
						stop.Store(true)
					} else {
						fail(err)
					}
				}
			}
		}()
	}
	for i := range p.parts {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	e.events.Record(obs.EventScanFinish, "index %s: %d partitions done in %s (err=%v)",
		p.opts.Index.Name, len(p.parts), time.Since(t0).Round(time.Microsecond), firstErr)
	root.End()
	return firstErr
}

// consumeNDPPage dispatches on what the Page Store returned.
func (e *Engine) consumeNDPPage(s *scanState, pg *page.Page) error {
	switch {
	case pg.IsNDPEmpty():
		return nil
	case !pg.IsNDP():
		// Resource-control skip (§IV-D2): a regular page image; the
		// frontend completes the NDP processing.
		e.Metrics.SkippedCompleted.Add(1)
		return e.consumeRegularAsNDP(s, pg)
	}
	e.Metrics.NDPPagesConsumed.Add(1)
	var iterErr error
	pg.Iter(func(rec page.Record) bool {
		switch rec.Type {
		case page.RecOrdinary:
			// Ambiguous (or unfiltered) record: full frontend pipeline.
			key, rowBytes, err := page.SplitLeafPayload(rec.Payload)
			if err != nil {
				iterErr = err
				return false
			}
			if err := e.processFullRecord(s, rec, key, rowBytes); err != nil {
				iterErr = err
				return false
			}
		case page.RecNDPProjection:
			// Already filtered, projected, and visible.
			_, rowBytes, err := page.SplitLeafPayload(rec.Payload)
			if err != nil {
				iterErr = err
				return false
			}
			row := s.outRow
			if row == nil {
				row = make(types.Row, s.proc.OutSchema().Len())
			}
			if _, err := types.DecodeRow(rowBytes, s.proc.OutSchema(), row); err != nil {
				iterErr = err
				return false
			}
			e.Metrics.RowsEmitted.Add(1)
			if err := s.emit(row, nil); err != nil {
				iterErr = err
				return false
			}
		case page.RecNDPAggregate:
			_, row, states, err := s.proc.DecodeAggRecord(rec.Payload)
			if err != nil {
				iterErr = err
				return false
			}
			e.Metrics.AggMergesSQL.Add(1)
			e.Metrics.RowsEmitted.Add(1)
			if err := s.emit(row, states); err != nil {
				iterErr = err
				return false
			}
		default:
			iterErr = fmt.Errorf("engine: unexpected record type %d in NDP page %d", rec.Type, pg.ID())
			return false
		}
		return true
	})
	return iterErr
}

// consumeRegularAsNDP runs the full frontend pipeline over a regular page
// image (skipped page or buffer-pool copy).
func (e *Engine) consumeRegularAsNDP(s *scanState, pg *page.Page) error {
	if pg.Level() != 0 {
		// Only a read past the stamped LSN (the retry at latest) can
		// meet a leaf root raised since collection.
		return fmt.Errorf("engine: page %d is no longer a leaf", pg.ID())
	}
	var iterErr error
	pg.Iter(func(rec page.Record) bool {
		key, rowBytes, err := page.SplitLeafPayload(rec.Payload)
		if err != nil {
			iterErr = err
			return false
		}
		if err := e.processFullRecord(s, rec, key, rowBytes); err != nil {
			iterErr = err
			return false
		}
		return true
	})
	return iterErr
}
