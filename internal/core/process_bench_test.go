package core

import (
	"runtime"
	"testing"

	"taurus/internal/core/ir"
	"taurus/internal/expr"
	"taurus/internal/page"
	"taurus/internal/types"
)

// fullLeaf fills one leaf page with (id, v) rows, id ascending and
// v = id/8, so a GROUP BY v sees groups of eight adjacent records.
func fullLeaf(b *testing.B) *page.Page {
	b.Helper()
	pg := page.New(1, 1, 0)
	for i := int64(0); ; i++ {
		key := types.EncodeKey(nil, types.Row{types.NewInt(i)})
		rowBytes := types.EncodeRow(nil, testSchemaIDV, types.Row{types.NewInt(i), types.NewInt(i / 8)})
		if _, err := pg.Append(page.RecOrdinary, 10, page.EncodeLeafPayload(nil, key, rowBytes)); err != nil {
			return pg
		}
	}
}

func mustIR(b *testing.B, e *expr.Expr) []byte {
	b.Helper()
	p, err := ir.Compile(e, 2)
	if err != nil {
		b.Fatal(err)
	}
	return p.Encode()
}

// BenchmarkProcessPage is the NDP kernel's layer benchmark: one full
// (id INT, v INT) leaf through ProcessPage per iteration, reported per
// record. The predicate is v > 3; the aggregate cases sum an IR
// argument, id*2, beside COUNT(*).
func BenchmarkProcessPage(b *testing.B) {
	pg := fullLeaf(b)
	records := pg.NumRecords()
	pred := mustIR(b, expr.GT(expr.Col(1, "v"), expr.ConstInt(3)))
	arg := mustIR(b, expr.Mul(expr.Col(0, "id"), expr.ConstInt(2)))
	aggs := []AggSpec{{Fn: AggSum, ArgCol: -1, ArgIR: arg}, {Fn: AggCountStar, ArgCol: -1}}
	cases := []struct {
		name string
		set  func(d *Descriptor)
	}{
		{"visibility_only", func(d *Descriptor) {}},
		{"filter", func(d *Descriptor) { d.Predicate = pred }},
		{"filter_project", func(d *Descriptor) {
			d.Predicate = pred
			d.Projection = []uint16{1}
		}},
		{"scalar_agg", func(d *Descriptor) {
			d.Predicate = pred
			d.Aggs = aggs
		}},
		{"grouped_agg", func(d *Descriptor) {
			d.Predicate = pred
			d.Aggs = aggs
			d.GroupBy = []uint16{1}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := baseDescriptor()
			c.set(d)
			proc, err := NewProcessor(d.Encode())
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := proc.ProcessPage(pg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(records)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
		})
	}
}
