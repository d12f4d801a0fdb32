package core

import (
	"reflect"
	"testing"
	"time"

	"taurus/internal/core/ir"
	"taurus/internal/expr"
	"taurus/internal/page"
	"taurus/internal/types"
)

// fuzzLeaf is the fixed leaf FuzzDecodeDescriptor runs a descriptor
// over: twelve (id, v) rows of index indexID, two of them above the
// seeds' low watermark and one delete-marked.
func fuzzLeaf(t *testing.T, indexID uint64) *page.Page {
	pg := page.New(1, indexID, 0)
	for i := int64(0); i < 12; i++ {
		key := types.EncodeKey(nil, types.Row{types.NewInt(i)})
		rowBytes := types.EncodeRow(nil, testSchemaIDV, types.Row{types.NewInt(i), types.NewInt(i % 5)})
		trx := uint64(10)
		if i == 3 || i == 7 {
			trx = 200
		}
		off, err := pg.Append(page.RecOrdinary, trx, page.EncodeLeafPayload(nil, key, rowBytes))
		if err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			pg.SetDeleteMark(off, true)
		}
	}
	return pg
}

// fuzzDescriptorSeeds are baseDescriptor variants and a Q6-shaped
// descriptor: a range predicate, a projection and SUM over an IR
// argument.
func fuzzDescriptorSeeds(f *testing.F) [][]byte {
	compile := func(e *expr.Expr, cols int) []byte {
		p, err := ir.Compile(e, cols)
		if err != nil {
			f.Fatal(err)
		}
		return p.Encode()
	}
	pred := compile(expr.GT(expr.Col(1, "v"), expr.ConstInt(1)), 2)
	filtered := baseDescriptor()
	filtered.Predicate = pred
	projected := baseDescriptor()
	projected.Projection = []uint16{1}
	grouped := baseDescriptor()
	grouped.Aggs = []AggSpec{{Fn: AggSum, ArgCol: 1}, {Fn: AggCountStar, ArgCol: -1}, {Fn: AggMax, ArgCol: 0}}
	grouped.GroupBy = []uint16{1}
	q6 := baseDescriptor()
	q6.Predicate = compile(expr.AndAll(
		expr.GE(expr.Col(0, "id"), expr.ConstInt(2)),
		expr.LT(expr.Col(0, "id"), expr.ConstInt(10)),
		expr.Between(expr.Col(1, "v"), expr.ConstInt(1), expr.ConstInt(3))), 2)
	q6.Projection = []uint16{0, 1}
	q6.Aggs = []AggSpec{{Fn: AggSum, ArgCol: -1,
		ArgIR: compile(expr.Mul(expr.Col(0, "id"), expr.Sub(expr.ConstInt(10), expr.Col(1, "v"))), 2)}}
	var seeds [][]byte
	for _, d := range []*Descriptor{baseDescriptor(), filtered, projected, grouped, q6} {
		seeds = append(seeds, d.Encode())
	}
	return seeds
}

// FuzzDecodeDescriptor checks the descriptor decoder around the IR: a
// Page Store decodes whatever bytes a batch read carries. Decode never
// panics; an accepted descriptor re-encodes to one that decodes equal;
// and its Processor turns a leaf of the descriptor's index into an NDP
// page or an error, without panicking or hanging.
func FuzzDecodeDescriptor(f *testing.F) {
	for _, s := range fuzzDescriptorSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDescriptor(b)
		if err != nil {
			return
		}
		again, err := DecodeDescriptor(d.Encode())
		if err != nil {
			t.Fatalf("re-encoded descriptor rejected: %v", err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip changed the descriptor:\n%+v\n%+v", d, again)
		}
		proc, err := NewProcessor(b)
		if err != nil {
			t.Fatalf("NewProcessor rejects what DecodeDescriptor accepts: %v", err)
		}
		leaf := fuzzLeaf(t, d.IndexID)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if out, _, err := proc.ProcessPage(leaf); err == nil {
				_ = proc.MergeScalarBatch([]*page.Page{out})
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("ProcessPage did not return on descriptor %+v", d)
		}
	})
}

// TestAggregateArgumentOfMixedKinds runs MIN over an argument program
// that returns an integer on some rows and a string on others. A
// crafted descriptor can carry one; the aggregator's types.Compare
// panics on the mix, which would take down a Page Store worker.
func TestAggregateArgumentOfMixedKinds(t *testing.T) {
	t.Skip("4a: AccumulateRow's MIN/MAX compare an argument's kinds unchecked; open")
	// r0 = col 1; if r0 > 2 return "s" else return r0.
	arg := &ir.Program{NumRegs: 4, NumCols: 2,
		Consts: []types.Datum{types.NewInt(2), types.NewString("s")},
		Instrs: []ir.Instr{
			{Op: ir.OpLoadCol, A: 0, B: 1},
			{Op: ir.OpConst, A: 1, B: 0},
			{Op: ir.OpCmp, Sub: uint8(ir.CmpGT), A: 2, B: 0, C: 1},
			{Op: ir.OpBrFalse, B: 2, C: 6},
			{Op: ir.OpConst, A: 3, B: 1},
			{Op: ir.OpRet, B: 3},
			{Op: ir.OpRet, B: 0},
		}}
	d := baseDescriptor()
	d.Aggs = []AggSpec{{Fn: AggMin, ArgCol: -1, ArgIR: arg.Encode()}}
	proc, err := NewProcessor(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := proc.ProcessPage(fuzzLeaf(t, 1)); err == nil {
		t.Error("a MIN over mixed kinds returned a page; want an error")
	}
}
