// Package core implements the paper's primary contribution: the NDP
// descriptor and the near-data page transforms (selection, projection,
// and aggregation) that Page Stores apply to InnoDB pages, plus the
// merge/completion helpers the frontend uses for ambiguous records and
// skipped pages.
//
// The descriptor is "a data structure called an 'NDP descriptor' [that]
// contains the number and data types of the index columns ...; the
// columns to be projected, if any; the encoded filtering predicates in
// the LLVM IR format, if any; the aggregation functions to call and the
// GROUP BY columns, if any; a transaction ID that represents an MVCC
// read-view low watermark" (§IV-C1). Page Stores receive it as an opaque
// byte stream and decode it with this package, the paper's DBMS-specific
// NDP plugin (§IV-D).
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"taurus/internal/core/ir"
	"taurus/internal/types"
)

// AggFn enumerates aggregate functions Page Stores can compute. AVG never
// appears: the optimizer decomposes it into SUM and COUNT, "AVG is
// computed by keeping SUM and COUNT values" (§III).
type AggFn uint8

const (
	// AggCountStar counts rows (COUNT(*)).
	AggCountStar AggFn = iota
	// AggCount counts non-NULL argument values (COUNT(col)).
	AggCount
	// AggSum sums the argument.
	AggSum
	// AggMin / AggMax track the extreme argument value.
	AggMin
	AggMax
)

func (f AggFn) String() string {
	switch f {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFn(%d)", uint8(f))
	}
}

// AggSpec describes one pushed-down aggregate.
type AggSpec struct {
	Fn AggFn
	// ArgCol is the argument column ordinal in the NDP-processed row
	// layout (post-projection if projection is enabled), or -1 for
	// COUNT(*) and for IR-computed arguments.
	ArgCol int32
	// ArgIR optionally holds an encoded IR program computing the
	// argument from the row, for expression aggregates like
	// SUM(l_extendedprice * (1 - l_discount)) in TPC-H Q1/Q6.
	ArgIR []byte
}

// Descriptor carries everything a Page Store needs to NDP-process pages
// for one table access. A separate descriptor exists per table per query
// block.
type Descriptor struct {
	// IndexID identifies the index whose pages this descriptor applies
	// to; requests for other indexes are rejected.
	IndexID uint64
	// Cols lists the column kinds of the index row layout, in order;
	// together with FixedLens this is the "number and data types of the
	// index columns and the lengths of the fixed-length columns".
	Cols []types.Kind
	// FixedLens holds per-column fixed lengths (0 = variable/non-string).
	FixedLens []uint16
	// Projection lists the retained column ordinals, ascending; empty
	// means no projection. The optimizer always includes the primary
	// key and any columns needed downstream (§V-A).
	Projection []uint16
	// Predicate is the encoded IR program for the pushed filter, or
	// empty. Ordinals refer to the full (pre-projection) row layout.
	Predicate []byte
	// Aggs lists pushed aggregates; empty means no NDP aggregation.
	Aggs []AggSpec
	// GroupBy lists grouping column ordinals (post-projection layout);
	// empty with non-empty Aggs means scalar aggregation, which also
	// enables cross-page aggregation within a batch read (§V-C).
	GroupBy []uint16
	// LowWatermark is the MVCC read-view low watermark: records with
	// TrxID < LowWatermark are visible; others are ambiguous and must
	// be returned to the frontend unprocessed. "A complete list of
	// active transactions is not included to reduce CPU overhead in
	// Page Stores" (§IV-C1).
	LowWatermark uint64
}

// HasProjection reports whether column projection was pushed down.
func (d *Descriptor) HasProjection() bool { return len(d.Projection) > 0 }

// HasPredicate reports whether filtering was pushed down.
func (d *Descriptor) HasPredicate() bool { return len(d.Predicate) > 0 }

// HasAggregation reports whether aggregation was pushed down.
func (d *Descriptor) HasAggregation() bool { return len(d.Aggs) > 0 }

// RowSchema materializes the full row schema described by Cols.
func (d *Descriptor) RowSchema() *types.Schema {
	cols := make([]types.Column, len(d.Cols))
	for i, k := range d.Cols {
		cols[i] = types.Column{Name: fmt.Sprintf("c%d", i), Kind: k, FixedLen: int(d.FixedLens[i])}
	}
	return types.NewSchema(cols...)
}

// OutputSchema is the schema of rows in NDP-processed records: the
// projected schema if projection is enabled, else the full row schema.
func (d *Descriptor) OutputSchema() *types.Schema {
	full := d.RowSchema()
	if !d.HasProjection() {
		return full
	}
	ords := make([]int, len(d.Projection))
	for i, o := range d.Projection {
		ords[i] = int(o)
	}
	return full.Project(ords)
}

const descMagic = "TNDP"

// Encode serializes the descriptor to the opaque byte stream shipped with
// NDP I/O requests.
func (d *Descriptor) Encode() []byte {
	buf := make([]byte, 0, 64+len(d.Predicate))
	buf = append(buf, descMagic...)
	buf = binary.AppendUvarint(buf, d.IndexID)
	buf = binary.AppendUvarint(buf, uint64(len(d.Cols)))
	for i, k := range d.Cols {
		buf = append(buf, byte(k))
		buf = binary.AppendUvarint(buf, uint64(d.FixedLens[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Projection)))
	for _, o := range d.Projection {
		buf = binary.AppendUvarint(buf, uint64(o))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Predicate)))
	buf = append(buf, d.Predicate...)
	buf = binary.AppendUvarint(buf, uint64(len(d.Aggs)))
	for _, a := range d.Aggs {
		buf = append(buf, byte(a.Fn))
		buf = binary.AppendVarint(buf, int64(a.ArgCol))
		buf = binary.AppendUvarint(buf, uint64(len(a.ArgIR)))
		buf = append(buf, a.ArgIR...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.GroupBy)))
	for _, g := range d.GroupBy {
		buf = binary.AppendUvarint(buf, uint64(g))
	}
	buf = binary.AppendUvarint(buf, d.LowWatermark)
	return buf
}

// DecodeDescriptor parses and sanity-checks an encoded descriptor,
// including its embedded IR programs and the row widths they load from.
func DecodeDescriptor(buf []byte) (*Descriptor, error) {
	d, err := parseDescriptor(buf)
	if err != nil {
		return nil, err
	}
	if _, _, err := d.decodePrograms(); err != nil {
		return nil, err
	}
	return d, nil
}

// parseDescriptor is DecodeDescriptor without the IR checks, which
// NewProcessor makes once while it decodes the programs it keeps.
func parseDescriptor(buf []byte) (*Descriptor, error) {
	if len(buf) < 4 || string(buf[:4]) != descMagic {
		return nil, fmt.Errorf("core: bad descriptor magic")
	}
	r := &descReader{buf: buf, off: 4}
	d := &Descriptor{}
	d.IndexID = r.uvarint()
	nCols := r.uvarint()
	if nCols > 4096 {
		return nil, fmt.Errorf("core: implausible column count %d", nCols)
	}
	d.Cols = make([]types.Kind, nCols)
	d.FixedLens = make([]uint16, nCols)
	for i := range d.Cols {
		d.Cols[i] = types.Kind(r.byte())
		d.FixedLens[i] = uint16(r.uvarint())
	}
	nProj := r.uvarint()
	if nProj > nCols {
		return nil, fmt.Errorf("core: projection wider than row")
	}
	d.Projection = make([]uint16, nProj)
	for i := range d.Projection {
		o := r.uvarint()
		if o >= nCols {
			return nil, fmt.Errorf("core: projection ordinal %d out of range", o)
		}
		d.Projection[i] = uint16(o)
	}
	predLen := r.uvarint()
	d.Predicate = r.bytes(int(predLen))
	nAggs := r.uvarint()
	if nAggs > 256 {
		return nil, fmt.Errorf("core: implausible aggregate count %d", nAggs)
	}
	d.Aggs = make([]AggSpec, nAggs)
	outCols := nCols
	if nProj > 0 {
		outCols = nProj
	}
	for i := range d.Aggs {
		d.Aggs[i].Fn = AggFn(r.byte())
		if d.Aggs[i].Fn > AggMax {
			return nil, fmt.Errorf("core: unknown aggregate fn %d", d.Aggs[i].Fn)
		}
		d.Aggs[i].ArgCol = int32(r.varint())
		if int(d.Aggs[i].ArgCol) >= int(outCols) {
			return nil, fmt.Errorf("core: aggregate arg ordinal out of range")
		}
		irLen := r.uvarint()
		d.Aggs[i].ArgIR = r.bytes(int(irLen))
	}
	nGroup := r.uvarint()
	if nGroup > outCols {
		return nil, fmt.Errorf("core: group-by wider than output row")
	}
	d.GroupBy = make([]uint16, nGroup)
	for i := range d.GroupBy {
		g := r.uvarint()
		if g >= outCols {
			return nil, fmt.Errorf("core: group-by ordinal out of range")
		}
		d.GroupBy[i] = uint16(g)
	}
	d.LowWatermark = r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("core: corrupt descriptor: %w", r.err)
	}
	return d, nil
}

// decodePrograms decodes the embedded IR programs, the predicate (nil
// when none) and each aggregate with its argument program, and checks
// that each loads only columns its row has: the predicate runs on the
// full row and aggregate arguments on the output row. Validate bounds
// everything else; together they make ir.Program.Eval safe on bytes a
// Page Store cannot trust.
func (d *Descriptor) decodePrograms() (*ir.Program, []aggEval, error) {
	var pred *ir.Program
	if len(d.Predicate) > 0 {
		var err error
		if pred, err = ir.Decode(d.Predicate); err != nil {
			return nil, nil, fmt.Errorf("core: bad predicate IR: %w", err)
		}
		if pred.NumCols > len(d.Cols) {
			return nil, nil, fmt.Errorf("core: predicate needs %d cols, row has %d", pred.NumCols, len(d.Cols))
		}
	}
	aggs, err := aggEvals(d.Aggs)
	if err != nil {
		return nil, nil, err
	}
	outCols := len(d.Cols)
	if d.HasProjection() {
		outCols = len(d.Projection)
	}
	for i, e := range aggs {
		if e.prog != nil && e.prog.NumCols > outCols {
			return nil, nil, fmt.Errorf("core: agg %d argument needs %d cols, output row has %d", i, e.prog.NumCols, outCols)
		}
	}
	return pred, aggs, nil
}

// Hash computes the descriptor-cache key: "computed by applying a hash
// function to the NDP descriptor fields" (§IV-D1).
func (d *Descriptor) Hash() uint64 { return HashBytes(d.Encode()) }

// HashBytes hashes an encoded descriptor; Page Stores use it as the
// descriptor-cache key without decoding first.
func HashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

type descReader struct {
	buf []byte
	off int
	err error
}

func (r *descReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = fmt.Errorf("truncated at %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *descReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *descReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *descReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("truncated bytes at %d", r.off)
		return nil
	}
	b := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return b
}
