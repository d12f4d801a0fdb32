package bench

import (
	"strings"
	"testing"

	"taurus/internal/tpch"
)

var sharedFixture *Fixture

func fixture(t testing.TB) *Fixture {
	t.Helper()
	if sharedFixture == nil {
		f, err := NewFixture(0.005)
		if err != nil {
			t.Fatal(err)
		}
		sharedFixture = f
	}
	return sharedFixture
}

func TestRunQueryMeasures(t *testing.T) {
	f := fixture(t)
	q, _ := tpch.QueryByName("Q6")
	f.DB.Eng.Pool().Clear()
	m, err := f.RunQuery(q, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 1 {
		t.Errorf("Q6 rows = %d", m.Rows)
	}
	if m.NetBytes == 0 || m.SQLCPUUnits == 0 {
		t.Errorf("measurement incomplete: %+v", m)
	}
	if m.StoreRecords == 0 {
		t.Error("NDP run should show store-side record processing")
	}
	w := m.Work()
	if w.NetBytes == 0 || w.ParallelCPUUnits <= 0 {
		t.Errorf("work conversion: %+v", w)
	}
}

func TestFig5Shape(t *testing.T) {
	f := fixture(t)
	rows, err := f.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// "With NDP, network reads are reduced to negligible amounts for the
	// COUNT(*) queries and Q6. The reduction is less for Q1 but is still
	// considerable."
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	for _, name := range []string{"Q0", "Q001", "Q002", "Q6"} {
		if byName[name].ReductionPct < 90 {
			t.Errorf("%s network reduction = %.1f%%, want ≥90%%", name, byName[name].ReductionPct)
		}
	}
	q1 := byName["Q1"]
	if q1.ReductionPct < 40 {
		t.Errorf("Q1 reduction = %.1f%%, want considerable (≥40%%)", q1.ReductionPct)
	}
	if q1.ReductionPct > byName["Q6"].ReductionPct {
		t.Error("Q1 reduction should be less than Q6's")
	}
	var sb strings.Builder
	PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "Fig. 5") {
		t.Error("report missing header")
	}
}

func TestFig6Shape(t *testing.T) {
	f := fixture(t)
	rows, err := f.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// PQ+NDP must beat PQ-only and approach the theoretical max for
		// the I/O-bound scans.
		if r.PQandNDPPct < r.PQOnlyPct-0.5 {
			t.Errorf("%s: PQ+NDP %.1f%% should be ≥ PQ-only %.1f%%", r.Query, r.PQandNDPPct, r.PQOnlyPct)
		}
		// NDP can push reductions past the pure-parallelism bound
		// because it removes work outright; sanity-cap at 100%.
		if r.PQandNDPPct > 100 {
			t.Errorf("%s: reduction beyond 100%%", r.Query)
		}
	}
	// The full-table-scan queries bottleneck on I/O without NDP: their
	// PQ-only reduction stays clearly below the theoretical 96.9%.
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	for _, name := range []string{"Q0", "Q001", "Q6"} {
		if byName[name].PQOnlyPct >= byName[name].TheoreticalPct-3 {
			t.Errorf("%s: PQ-only %.1f%% should be capped by the I/O bottleneck", name, byName[name].PQOnlyPct)
		}
		if byName[name].PQandNDPPct < byName[name].TheoreticalPct-8 {
			t.Errorf("%s: PQ+NDP %.1f%% should approach the theoretical max", name, byName[name].PQandNDPPct)
		}
	}
	var sb strings.Builder
	PrintFig6(&sb, rows)
	if !strings.Contains(sb.String(), "DOP 32") {
		t.Error("report missing header")
	}
}

func TestFig7Shape(t *testing.T) {
	f := fixture(t)
	res, err := f.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 22 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byName := map[string]Fig7Row{}
	for _, r := range res.Rows {
		byName[r.Query] = r
	}
	// Queries with no NDP see no reduction.
	for _, name := range []string{"Q11", "Q17", "Q19", "Q20"} {
		r := byName[name]
		if r.NDPUsed {
			t.Errorf("%s should not use NDP", name)
		}
		if r.NetReductionPct > 5 || r.NetReductionPct < -5 {
			t.Errorf("%s net reduction = %.1f%%, want ≈0", name, r.NetReductionPct)
		}
	}
	// The heavy-pushdown queries show strong network reduction.
	for _, name := range []string{"Q6", "Q12", "Q14", "Q15"} {
		if r := byName[name]; r.NetReductionPct < 70 {
			t.Errorf("%s net reduction = %.1f%%, want ≥70%%", name, r.NetReductionPct)
		}
	}
	// Headline aggregates in the right neighbourhood (paper: 63%/50%,
	// 18 of 22).
	if res.TotalNetPct < 35 {
		t.Errorf("total network reduction = %.1f%%, want substantial", res.TotalNetPct)
	}
	if res.TotalCPUPct < 20 {
		t.Errorf("total CPU reduction = %.1f%%, want substantial", res.TotalCPUPct)
	}
	if res.QueriesBenefit < 12 {
		t.Errorf("only %d queries benefited", res.QueriesBenefit)
	}
	var sb strings.Builder
	PrintFig7(&sb, res)
	if !strings.Contains(sb.String(), "TOTAL") {
		t.Error("report missing totals")
	}
}

func TestFig8Shape(t *testing.T) {
	f := fixture(t)
	res, err := f.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 22 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.TotalPct < 10 {
		t.Errorf("total runtime reduction = %.1f%%", res.TotalPct)
	}
	if res.CountOver60 < 3 {
		t.Errorf("only %d queries ≥60%% (paper: 7)", res.CountOver60)
	}
	byName := map[string]Fig8Row{}
	for _, r := range res.Rows {
		byName[r.Query] = r
	}
	if byName["Q6"].ReductionPct < 60 {
		t.Errorf("Q6 runtime reduction = %.1f%%", byName["Q6"].ReductionPct)
	}
	var sb strings.Builder
	PrintFig8(&sb, res)
	if !strings.Contains(sb.String(), "Fig. 8") {
		t.Error("report header missing")
	}
}

func TestFig9Shape(t *testing.T) {
	f := fixture(t)
	rows, err := f.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	max := (1 - 1.0/16) * 100
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Query] = r
		if r.ReductionPct > max+0.1 {
			t.Errorf("%s beyond theoretical max", r.Query)
		}
	}
	// Q15's serial NL join caps its gain at roughly half the max.
	if q15 := byName["Q15"]; q15.ReductionPct > max*0.75 {
		t.Errorf("Q15 reduction = %.1f%%, should be capped well below %.1f%%", q15.ReductionPct, max)
	}
	// Q1 approaches the maximum.
	if q1 := byName["Q1"]; q1.ReductionPct < max*0.75 {
		t.Errorf("Q1 reduction = %.1f%%, want near max", q1.ReductionPct)
	}
	var sb strings.Builder
	PrintFig9(&sb, rows)
	if !strings.Contains(sb.String(), "DOP 16") {
		t.Error("report header missing")
	}
}

func TestQ4BufferPoolEffect(t *testing.T) {
	f := fixture(t)
	noNDP, withNDP, err := f.Q4BufferPool()
	if err != nil {
		t.Fatal(err)
	}
	// "When Q1 through Q3 ran with NDP disabled, the resulting buffer
	// pool had 1,272,972 Lineitem pages. [With NDP] only 24,186."
	if noNDP == 0 {
		t.Fatal("no-NDP sequence should warm the pool with lineitem pages")
	}
	if withNDP*5 > noNDP {
		t.Errorf("NDP resident=%d should be ≪ no-NDP resident=%d", withNDP, noNDP)
	}
}

func TestSortedByQueryNumber(t *testing.T) {
	rows := []Fig7Row{{Query: "Q10"}, {Query: "Q2"}, {Query: "Q1"}}
	s := SortedByQueryNumber(rows)
	if s[0].Query != "Q1" || s[1].Query != "Q2" || s[2].Query != "Q10" {
		t.Errorf("order: %v", s)
	}
}
