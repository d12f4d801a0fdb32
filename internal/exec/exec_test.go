package exec

import (
	"testing"

	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/expr"
	"taurus/internal/testutil"
	"taurus/internal/types"
)

func workerCluster(t testing.TB, n int) (*testutil.Cluster, *engine.Table) {
	t.Helper()
	c, err := testutil.NewCluster(testutil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.LoadWorkers(n)
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func intRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestTableScanOperator(t *testing.T) {
	c, tbl := workerCluster(t, 300)
	ctx := NewCtx(c.Engine)
	scan := &TableScan{
		Opts: engine.ScanOptions{Index: tbl.Primary, Projection: []int{0, 1}},
		Cols: []string{"id", "age"},
	}
	rows, err := Run(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d id %d", i, r[0].I)
		}
	}
	if got := scan.Columns(); len(got) != 2 || got[0] != "id" {
		t.Errorf("Columns = %v", got)
	}
}

func TestTableScanRejectsAggPushdown(t *testing.T) {
	c, tbl := workerCluster(t, 10)
	ctx := NewCtx(c.Engine)
	scan := &TableScan{Opts: engine.ScanOptions{
		Index: tbl.Primary,
		NDP:   &engine.NDPPush{Aggs: []core.AggSpec{{Fn: core.AggCountStar, ArgCol: -1}}},
	}}
	if err := scan.Open(ctx); err == nil {
		t.Fatal("TableScan must reject aggregate pushdown")
	}
}

func TestFilterProjectLimit(t *testing.T) {
	c, tbl := workerCluster(t, 200)
	ctx := NewCtx(c.Engine)
	var tree Operator = &TableScan{
		Opts: engine.ScanOptions{Index: tbl.Primary},
		Cols: []string{"id", "age", "join_date", "salary", "name"},
	}
	tree = &Filter{Input: tree, Pred: expr.LT(expr.Col(1, "age"), expr.ConstInt(30))}
	tree = &Project{
		Input: tree,
		Exprs: []*expr.Expr{expr.Col(0, "id"), expr.Mul(expr.Col(3, "salary"), expr.ConstInt(2))},
		Names: []string{"id", "double_salary"},
	}
	tree = &Limit{Input: tree, N: 5}
	rows, err := Run(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
	if tree.Columns()[1] != "double_salary" {
		t.Error("projection names lost")
	}
}

func TestSortOperator(t *testing.T) {
	ctx := &Ctx{}
	v := &Values{
		Rows:  []types.Row{intRow(3, 1), intRow(1, 2), intRow(2, 3), intRow(1, 1)},
		Names: []string{"a", "b"},
	}
	s := &Sort{Input: v, Keys: []OrderKey{
		{Expr: expr.Col(0, "a")},
		{Expr: expr.Col(1, "b"), Desc: true},
	}}
	rows, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].I != w[0] || rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestHashJoinKinds(t *testing.T) {
	ctx := &Ctx{}
	build := func() Operator {
		return &Values{Rows: []types.Row{intRow(1, 100), intRow(2, 200), intRow(2, 201)}, Names: []string{"k", "v"}}
	}
	probe := func() Operator {
		return &Values{Rows: []types.Row{intRow(1), intRow(2), intRow(3)}, Names: []string{"k"}}
	}
	// Inner: 1 match for k=1, 2 for k=2 → 3 rows.
	j := &HashJoin{Kind: JoinInner, Build: build(), Probe: probe(), BuildKeys: []int{0}, ProbeKeys: []int{0}}
	rows, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("inner join: %d rows", len(rows))
	}
	if len(rows[0]) != 3 {
		t.Fatalf("combined width = %d", len(rows[0]))
	}
	// Left outer: k=3 padded with NULLs → 4 rows.
	j = &HashJoin{Kind: JoinLeftOuter, Build: build(), Probe: probe(), BuildKeys: []int{0}, ProbeKeys: []int{0}}
	rows, _ = Run(ctx, j)
	if len(rows) != 4 {
		t.Fatalf("left join: %d rows", len(rows))
	}
	foundNull := false
	for _, r := range rows {
		if r[0].I == 3 && r[1].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Error("left join should pad unmatched probe rows")
	}
	// Semi: k=1 and k=2 → 2 rows of probe width.
	j = &HashJoin{Kind: JoinSemi, Build: build(), Probe: probe(), BuildKeys: []int{0}, ProbeKeys: []int{0}}
	rows, _ = Run(ctx, j)
	if len(rows) != 2 || len(rows[0]) != 1 {
		t.Fatalf("semi join: %d rows width %d", len(rows), len(rows[0]))
	}
	// Anti: k=3 only.
	j = &HashJoin{Kind: JoinAnti, Build: build(), Probe: probe(), BuildKeys: []int{0}, ProbeKeys: []int{0}}
	rows, _ = Run(ctx, j)
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("anti join: %v", rows)
	}
}

func TestHashJoinExtraCond(t *testing.T) {
	ctx := &Ctx{}
	// Join on k, extra condition v > 150 (build col at combined ord 2).
	j := &HashJoin{
		Kind:      JoinInner,
		Build:     &Values{Rows: []types.Row{intRow(2, 100), intRow(2, 200)}, Names: []string{"k", "v"}},
		Probe:     &Values{Rows: []types.Row{intRow(2)}, Names: []string{"k"}},
		BuildKeys: []int{0}, ProbeKeys: []int{0},
		ExtraCond: expr.GT(expr.Col(2, "v"), expr.ConstInt(150)),
	}
	rows, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].I != 200 {
		t.Fatalf("extra cond: %v", rows)
	}
	// Left outer where all matches fail the condition → padded row.
	j = &HashJoin{
		Kind:      JoinLeftOuter,
		Build:     &Values{Rows: []types.Row{intRow(2, 100)}, Names: []string{"k", "v"}},
		Probe:     &Values{Rows: []types.Row{intRow(2)}, Names: []string{"k"}},
		BuildKeys: []int{0}, ProbeKeys: []int{0},
		ExtraCond: expr.GT(expr.Col(2, "v"), expr.ConstInt(150)),
	}
	rows, _ = Run(ctx, j)
	if len(rows) != 1 || !rows[0][1].IsNull() {
		t.Fatalf("left outer with failing extra cond: %v", rows)
	}
	// Semi/anti with the inequality pattern of Q21.
	j = &HashJoin{
		Kind:      JoinAnti,
		Build:     &Values{Rows: []types.Row{intRow(1, 7)}, Names: []string{"k", "s"}},
		Probe:     &Values{Rows: []types.Row{intRow(1, 7), intRow(1, 8)}, Names: []string{"k", "s"}},
		BuildKeys: []int{0}, ProbeKeys: []int{0},
		ExtraCond: expr.NE(expr.Col(3, "s2"), expr.Col(1, "s1")),
	}
	rows, _ = Run(ctx, j)
	if len(rows) != 1 || rows[0][1].I != 7 {
		t.Fatalf("anti with inequality: %v", rows)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	ctx := &Ctx{}
	j := &HashJoin{
		Kind:      JoinInner,
		Build:     &Values{Rows: []types.Row{{types.Null(), types.NewInt(1)}}, Names: []string{"k", "v"}},
		Probe:     &Values{Rows: []types.Row{{types.Null()}}, Names: []string{"k"}},
		BuildKeys: []int{0}, ProbeKeys: []int{0},
	}
	rows, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatal("NULL keys must not join")
	}
}

func TestHashAgg(t *testing.T) {
	ctx := &Ctx{}
	in := &Values{
		Rows: []types.Row{
			intRow(1, 10), intRow(1, 20), intRow(2, 5), intRow(2, 5), intRow(2, 7),
		},
		Names: []string{"g", "v"},
	}
	agg := &HashAgg{
		Input:      in,
		GroupBy:    []*expr.Expr{expr.Col(0, "g")},
		GroupNames: []string{"g"},
		Aggs: []AggDef{
			{Fn: AggFnCountStar, Name: "cnt"},
			{Fn: AggFnSum, Arg: expr.Col(1, "v"), Name: "sum"},
			{Fn: AggFnAvg, Arg: expr.Col(1, "v"), Name: "avg"},
			{Fn: AggFnMin, Arg: expr.Col(1, "v"), Name: "min"},
			{Fn: AggFnMax, Arg: expr.Col(1, "v"), Name: "max"},
			{Fn: AggFnCount, Arg: expr.Col(1, "v"), Distinct: true, Name: "dcnt"},
		},
	}
	rows, err := Run(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d groups", len(rows))
	}
	byG := map[int64]types.Row{}
	for _, r := range rows {
		byG[r[0].I] = r
	}
	g1 := byG[1]
	if g1[1].I != 2 || g1[2].I != 30 || g1[3].I != 15 || g1[4].I != 10 || g1[5].I != 20 || g1[6].I != 2 {
		t.Errorf("group 1 = %v", g1)
	}
	g2 := byG[2]
	if g2[1].I != 3 || g2[2].I != 17 || g2[6].I != 2 {
		t.Errorf("group 2 = %v (distinct count should be 2)", g2)
	}
}

func TestHashAggScalarOnEmptyInput(t *testing.T) {
	ctx := &Ctx{}
	agg := &HashAgg{
		Input: &Values{Names: []string{"v"}},
		Aggs: []AggDef{
			{Fn: AggFnCountStar, Name: "cnt"},
			{Fn: AggFnSum, Arg: expr.Col(0, "v"), Name: "sum"},
		},
	}
	rows, err := Run(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("scalar agg over empty input = %v", rows)
	}
}

func TestNDPAggScanScalar(t *testing.T) {
	c, tbl := workerCluster(t, 1000)
	ctx := NewCtx(c.Engine)
	pred := expr.LT(expr.Col(1, "age"), expr.ConstInt(40))

	// Reference with HashAgg over a regular scan.
	ref := &HashAgg{
		Input: &Filter{
			Input: &TableScan{Opts: engine.ScanOptions{Index: tbl.Primary}, Cols: []string{"id", "age", "join_date", "salary", "name"}},
			Pred:  pred,
		},
		Aggs: []AggDef{
			{Fn: AggFnAvg, Arg: expr.Col(3, "salary"), Name: "avg_salary"},
			{Fn: AggFnCountStar, Name: "cnt"},
		},
	}
	want, err := Run(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	// NDP path: push predicate, projection, SUM+COUNT decomposition.
	c.Engine.Pool().Clear()
	ndp := &NDPAggScan{
		Opts: engine.ScanOptions{
			Index: tbl.Primary, Predicate: pred, Projection: []int{0, 3},
			NDP: &engine.NDPPush{
				PushPredicate: true, PushProjection: true,
				Aggs: []core.AggSpec{
					{Fn: core.AggSum, ArgCol: 1},
					{Fn: core.AggCountStar, ArgCol: -1},
				},
			},
		},
		Outputs: []AggOutput{
			{Spec: 0, AvgCount: 1, Name: "avg_salary"},
			{Spec: 1, AvgCount: -1, Name: "cnt"},
		},
	}
	got, err := Run(ctx, ndp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("scalar agg rows = %d", len(got))
	}
	if !types.Equal(got[0][0], want[0][0]) || got[0][1].I != want[0][1].I {
		t.Fatalf("NDP agg = %v, want %v", got[0], want[0])
	}
}

func TestNDPAggScanGrouped(t *testing.T) {
	c, err := testutil.NewCluster(testutil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(
		types.Column{Name: "grp", Kind: types.KindInt},
		types.Column{Name: "seq", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindInt},
	)
	tbl, err := c.Engine.CreateTable("g", schema, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Engine.Txm().Begin()
	want := map[int64]int64{}
	for g := int64(0); g < 7; g++ {
		for s := int64(0); s < 200; s++ {
			v := (g*7 + s) % 23
			want[g] += v
			if err := c.Engine.Insert(tbl, tx, intRow(g, s, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx.Commit()
	c.SAL.Flush()
	c.Engine.Pool().Clear()

	ctx := NewCtx(c.Engine)
	ndp := &NDPAggScan{
		Opts: engine.ScanOptions{
			Index: tbl.Primary, Projection: []int{0, 2},
			NDP: &engine.NDPPush{
				PushProjection: true,
				Aggs:           []core.AggSpec{{Fn: core.AggSum, ArgCol: 1}},
				GroupBy:        []int{0},
			},
		},
		Outputs: []AggOutput{{Spec: 0, AvgCount: -1, Name: "sum_val"}},
	}
	rows, err := Run(ctx, ndp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d groups, want 7", len(rows))
	}
	for _, r := range rows {
		if r[1].I != want[r[0].I] {
			t.Errorf("group %d: %d, want %d", r[0].I, r[1].I, want[r[0].I])
		}
	}
}

func TestIndexLookupJoin(t *testing.T) {
	c, tbl := workerCluster(t, 100)
	ctx := NewCtx(c.Engine)
	outer := &Values{
		Rows:  []types.Row{intRow(5), intRow(50), intRow(5000)},
		Names: []string{"want_id"},
	}
	j := &IndexLookupJoin{
		Outer:     outer,
		InnerCols: []string{"id", "age"},
		Lookup: func(ctx *Ctx, outerRow types.Row) ([]types.Row, error) {
			key := types.EncodeKey(nil, types.Row{outerRow[0]})
			var out []types.Row
			err := ctx.Eng.Scan(engine.ScanOptions{
				Index: tbl.Primary, Start: key, End: key, Projection: []int{0, 1},
			}, func(row types.Row, _ []core.AggState) error {
				out = append(out, row.Clone())
				return nil
			})
			return out, err
		},
	}
	rows, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("lookup join: %d rows (id 5000 must not match)", len(rows))
	}
	if rows[0][1].I != 5 || rows[1][1].I != 50 {
		t.Fatalf("lookup join rows: %v", rows)
	}
}
