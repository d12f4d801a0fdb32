package core

import (
	"fmt"

	"taurus/internal/core/ir"
	"taurus/internal/page"
	"taurus/internal/types"
)

// Processor is the decoded, reusable form of one NDP descriptor: the
// descriptor plus its validated predicate and aggregate argument
// programs, each decoded once when the Processor is built and run by
// ir.Program.Eval. Page Stores cache Processors in the descriptor cache
// (§IV-D1) so that "instead of decoding descriptors and converting LLVM
// bitcode for each NDP request, the first request caches the result
// which is reused subsequently."
//
// A Processor is immutable after construction and safe to share; per-page
// evaluation state (register files, aggregate states) is created per call
// (worker threads process pages "concurrently, independently, and in any
// order", §IV-D).
type Processor struct {
	Desc       *Descriptor
	fullSchema *types.Schema
	outSchema  *types.Schema
	pred       *ir.Program // nil without a pushed predicate
	aggs       []aggEval   // the pushed aggregates with their argument programs
}

// NewProcessor decodes descriptor bytes and, once, their programs, with
// the same checks as DecodeDescriptor.
func NewProcessor(descBytes []byte) (*Processor, error) {
	d, err := parseDescriptor(descBytes)
	if err != nil {
		return nil, err
	}
	return NewProcessorFromDescriptor(d)
}

// NewProcessorFromDescriptor builds a Processor from a decoded
// descriptor, decoding its programs.
func NewProcessorFromDescriptor(d *Descriptor) (*Processor, error) {
	pred, aggs, err := d.decodePrograms()
	if err != nil {
		return nil, err
	}
	return &Processor{
		Desc:       d,
		fullSchema: d.RowSchema(),
		outSchema:  d.OutputSchema(),
		pred:       pred,
		aggs:       aggs,
	}, nil
}

// PageStats counts what happened to one page (or batch) during NDP
// processing; the network/CPU accounting in the experiment harness is
// built on these.
type PageStats struct {
	RecordsIn  int // records examined
	Ambiguous  int // returned unprocessed for frontend MVCC handling
	Deleted    int // visible delete-marked records skipped
	Filtered   int // visible records dropped by the pushed predicate
	RecordsOut int // records in the NDP page (all kinds)
}

// ProcessPage converts one regular leaf page into an NDP page per the
// descriptor: visibility split, predicate filtering, column projection,
// and per-page (grouped or scalar) aggregation, in that order (§V).
// The input page is not modified.
func (p *Processor) ProcessPage(src *page.Page) (*page.Page, PageStats, error) {
	var st PageStats
	if src.IsNDP() {
		return nil, st, fmt.Errorf("core: page %d is already an NDP page", src.ID())
	}
	if src.Level() != 0 {
		return nil, st, fmt.Errorf("core: page %d is not a leaf (level %d)", src.ID(), src.Level())
	}
	d := p.Desc
	if src.IndexID() != d.IndexID {
		return nil, st, fmt.Errorf("core: page index %d does not match descriptor index %d", src.IndexID(), d.IndexID)
	}
	out := page.NewNDP(src.ID(), src.IndexID(), len(src.Bytes())+2048)
	out.SetLSN(src.LSN())
	// Preserve leaf chain links: the frontend cursor drives iteration
	// through them exactly as it does for regular pages.
	out.SetPrevPage(src.PrevPage())
	out.SetNextPage(src.NextPage())

	var predRegs []types.Datum
	if p.pred != nil {
		predRegs = make([]types.Datum, p.pred.NumRegs)
	}
	var agg *Aggregator
	if d.HasAggregation() {
		agg = newAggregator(p.aggs)
	}

	fullRow := make(types.Row, p.fullSchema.Len())
	var projScratch []byte

	// Pending last-visible-row of the current aggregation group: its key
	// bytes, encoded (projected) row bytes, and decoded output row.
	// "Visible records—except the last record in a group—are summed up,
	// and discarded; and the summation is attached to the last record"
	// (§V-C).
	type pending struct {
		key []byte
		row []byte
		out types.Row
	}
	var pend *pending
	var groupKey types.Row

	flush := func() error {
		if pend == nil {
			return nil
		}
		payload := page.EncodeLeafPayload(nil, pend.key, pend.row)
		payload = EncodeAggStates(payload, agg.States())
		if _, err := out.Append(page.RecNDPAggregate, 0, payload); err != nil {
			return err
		}
		st.RecordsOut++
		agg.Reset()
		pend = nil
		return nil
	}

	var procErr error
	src.Iter(func(rec page.Record) bool {
		st.RecordsIn++
		if rec.TrxID >= d.LowWatermark {
			// Ambiguous: the Page Store cannot decide visibility; the
			// whole record is returned unchanged, full width, because
			// "InnoDB requires the entire record to construct the old
			// record version using its 'undo' log" (§V-A).
			off, err := out.Append(rec.Type, rec.TrxID, rec.Payload)
			if err != nil {
				procErr = err
				return false
			}
			if rec.Deleted {
				// An uncommitted delete: the frontend decides whether
				// the deletion is visible to its read view.
				out.SetDeleteMark(off, true)
			}
			st.Ambiguous++
			st.RecordsOut++
			return true
		}
		if rec.Deleted {
			st.Deleted++
			return true
		}
		key, rowBytes, err := page.SplitLeafPayload(rec.Payload)
		if err != nil {
			procErr = err
			return false
		}
		if _, err := types.DecodeRow(rowBytes, p.fullSchema, fullRow); err != nil {
			procErr = err
			return false
		}
		if p.pred != nil {
			if v := p.pred.Eval(fullRow, predRegs); v.IsNull() || v.I == 0 {
				st.Filtered++
				return true
			}
		}
		// Projection.
		outRow := fullRow
		outBytes := rowBytes
		recType := uint8(page.RecOrdinary)
		if d.HasProjection() {
			outRow = make(types.Row, len(d.Projection))
			for i, o := range d.Projection {
				outRow[i] = fullRow[o]
			}
			projScratch = types.EncodeRow(projScratch[:0], p.outSchema, outRow)
			outBytes = projScratch
			recType = page.RecNDPProjection
		}
		if agg == nil {
			payload := page.EncodeLeafPayload(nil, key, outBytes)
			if _, err := out.Append(recType, rec.TrxID, payload); err != nil {
				procErr = err
				return false
			}
			st.RecordsOut++
			return true
		}
		// Aggregation path: group switch detection on the group-by
		// columns of the output layout. Ambiguous records do not break
		// groups (they were appended above and skipped here).
		if pend != nil {
			same := true
			for i, g := range d.GroupBy {
				if types.Compare(groupKey[i], outRow[g]) != 0 {
					same = false
					break
				}
			}
			if !same {
				if err := flush(); err != nil {
					procErr = err
					return false
				}
			} else {
				// Previous pending row joins the accumulated state.
				agg.AccumulateRow(pend.out)
				pend = nil
			}
		}
		if pend == nil {
			groupKey = groupKey[:0]
			for _, g := range d.GroupBy {
				groupKey = append(groupKey, outRow[g])
			}
		}
		pend = &pending{
			key: append([]byte(nil), key...),
			row: append([]byte(nil), outBytes...),
			out: outRow.Clone(),
		}
		return true
	})
	if procErr != nil {
		return nil, st, procErr
	}
	if agg != nil {
		if err := flush(); err != nil {
			return nil, st, err
		}
	}
	if out.NumRecords() == 0 {
		// "If NDP predicate filtering removes all of the records in a
		// page, the resulting empty page is indicated specially without
		// requiring explicit materialization" (§IV-C2).
		out = page.NewNDP(src.ID(), src.IndexID(), 0)
		out.SetLSN(src.LSN())
		out.SetPrevPage(src.PrevPage())
		out.SetNextPage(src.NextPage())
		out.SetFlags(page.FlagNDPEmpty)
	}
	return out, st, nil
}

// DecodeAggRecord splits an NDP aggregate record payload into its key,
// base row bytes, decoded base row, and partial states.
func (p *Processor) DecodeAggRecord(payload []byte) (key []byte, row types.Row, states []AggState, err error) {
	key, rest, err := page.SplitLeafPayload(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	row = make(types.Row, p.outSchema.Len())
	n, err := types.DecodeRow(rest, p.outSchema, row)
	if err != nil {
		return nil, nil, nil, err
	}
	states, _, err = DecodeAggStates(rest[n:], len(p.Desc.Aggs))
	if err != nil {
		return nil, nil, nil, err
	}
	return key, row, states, nil
}

// OutSchema exposes the post-NDP row schema.
func (p *Processor) OutSchema() *types.Schema { return p.outSchema }

// FullSchema exposes the pre-NDP row schema.
func (p *Processor) FullSchema() *types.Schema { return p.fullSchema }

// MergeScalarBatch performs cross-page aggregation over the NDP pages of
// one batch I/O request, in batch order. It applies only to scalar
// aggregation (no GROUP BY): "If GROUP BY clause is absent ..., even
// logically non-adjacent pages can be aggregated ... cross-page
// aggregation happens only to the pages of the same I/O request" (§V-C).
//
// Each input page's trailing aggregate record is consumed: its partial
// state merges into the carry, and its base row is folded in once a later
// page supplies a newer base. The final carry is attached to the last
// contributing page as a single aggregate record, reproducing the
// paper's NDP(P1, P2) example. Pages are modified in place.
func (p *Processor) MergeScalarBatch(pages []*page.Page) error {
	d := p.Desc
	if !d.HasAggregation() || len(d.GroupBy) != 0 {
		return nil // grouped or non-aggregating batches are left alone
	}
	carry := newAggregator(p.aggs)
	type base struct {
		key  []byte
		row  []byte
		out  types.Row
		page *page.Page
	}
	var pend *base
	touched := false
	for _, pg := range pages {
		if pg == nil || !pg.IsNDP() || pg.IsNDPEmpty() {
			continue
		}
		payload, ok := popTrailingAggRecord(pg)
		if !ok {
			continue
		}
		key, row, states, err := p.DecodeAggRecord(payload)
		if err != nil {
			return err
		}
		if pend != nil {
			carry.AccumulateRow(pend.out)
		}
		if err := carry.MergeStates(states); err != nil {
			return err
		}
		rowBytes := types.EncodeRow(nil, p.outSchema, row)
		pend = &base{key: append([]byte(nil), key...), row: rowBytes, out: row, page: pg}
		touched = true
	}
	if !touched {
		return nil
	}
	if pend != nil {
		payload := page.EncodeLeafPayload(nil, pend.key, pend.row)
		payload = EncodeAggStates(payload, carry.States())
		if _, err := pend.page.Append(page.RecNDPAggregate, 0, payload); err != nil {
			return fmt.Errorf("core: cross-page merge overflow: %w", err)
		}
	}
	// Pages that lost their only record become empty-marked.
	for _, pg := range pages {
		if pg != nil && pg.IsNDP() && !pg.IsNDPEmpty() && pg.NumRecords() == 0 {
			pg.SetFlags(page.FlagNDPEmpty)
		}
	}
	return nil
}

// popTrailingAggRecord unlinks and returns the payload of the page's last
// record if it is an NDP aggregate record.
func popTrailingAggRecord(pg *page.Page) ([]byte, bool) {
	prev, last := 0, 0
	var lastRec page.Record
	for off := pg.FirstRecord(); off != 0; {
		r := pg.RecordAt(off)
		prev, last = last, off
		lastRec = r
		off = r.Next()
	}
	if last == 0 || lastRec.Type != page.RecNDPAggregate {
		return nil, false
	}
	payload := append([]byte(nil), lastRec.Payload...)
	pg.Unlink(prev)
	return payload, true
}
