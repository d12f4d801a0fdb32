package tpch

import (
	"fmt"
	"testing"

	"taurus/internal/exec"
	"taurus/internal/testutil"
	"taurus/internal/types"
)

var sharedDB *DB

// testDB loads a small TPC-H database once per test binary.
func testDB(t testing.TB) *DB {
	t.Helper()
	if sharedDB != nil {
		return sharedDB
	}
	c, err := testutil.NewCluster(testutil.Options{
		PoolPages: 512, PagesPerSlice: 32, LookAhead: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(c.Engine, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	sharedDB = db
	return db
}

func TestGeneratorShapes(t *testing.T) {
	g := NewGen(0.002)
	if g.NSupplier < 10 || g.NCustomer < 30 || g.NPart < 40 || g.NOrders < 150 {
		t.Fatalf("floors not applied: %+v", g)
	}
	orders, lines := g.Orders()
	if len(orders) != g.NOrders {
		t.Fatalf("orders = %d", len(orders))
	}
	if len(lines) < len(orders) {
		t.Fatal("each order needs at least one lineitem")
	}
	// Date correlation: l_shipdate > o_orderdate for every line.
	od := map[int64]int64{}
	for _, o := range orders {
		od[o[OOrderkey].I] = o[OOrderdate].I
	}
	for _, l := range lines[:100] {
		if l[LShipdate].I <= od[l[LOrderkey].I] {
			t.Fatal("l_shipdate must follow o_orderdate")
		}
	}
	// Discounts in 0.00..0.10 (scaled).
	for _, l := range lines[:200] {
		if l[LDiscount].I < 0 || l[LDiscount].I > 10 {
			t.Fatalf("discount out of range: %v", l[LDiscount])
		}
	}
}

func TestLoadBuildsCatalog(t *testing.T) {
	db := testDB(t)
	for _, tbl := range []string{"region", "nation", "supplier", "customer",
		"part", "partsupp", "orders", "lineitem"} {
		st := db.Cat.Stats(tbl)
		if st == nil || st.Rows == 0 {
			t.Errorf("missing stats for %s", tbl)
		}
	}
	if db.Cat.Stats("region").Rows != 5 || db.Cat.Stats("nation").Rows != 25 {
		t.Error("region/nation cardinalities wrong")
	}
	li := db.Cat.Stats("lineitem")
	if li.Rows < 300 {
		t.Errorf("lineitem rows = %d", li.Rows)
	}
	if db.Cat.NDPPageThreshold < 4 {
		t.Error("threshold not scaled")
	}
}

// TestAllQueriesNDPEquivalence is the workload-level correctness check:
// every TPC-H query returns identical rows with NDP on and off.
func TestAllQueriesNDPEquivalence(t *testing.T) {
	db := testDB(t)
	all := append(Queries(), MicroQueries()[:3]...)
	for _, q := range all {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			db.Eng.Pool().Clear()
			envOff := NewEnv(db, false)
			off, err := Run(envOff, exec.NewCtx(db.Eng), q)
			if err != nil {
				t.Fatalf("NDP off: %v", err)
			}
			db.Eng.Pool().Clear()
			envOn := NewEnv(db, true)
			on, err := Run(envOn, exec.NewCtx(db.Eng), q)
			if err != nil {
				t.Fatalf("NDP on: %v", err)
			}
			if len(off) != len(on) {
				t.Fatalf("row counts differ: off=%d on=%d", len(off), len(on))
			}
			for i := range off {
				if len(off[i]) != len(on[i]) {
					t.Fatalf("row %d arity differs", i)
				}
				for c := range off[i] {
					if off[i][c].IsNull() != on[i][c].IsNull() ||
						(!off[i][c].IsNull() && types.Compare(off[i][c], on[i][c]) != 0) {
						t.Fatalf("row %d col %d: off=%v on=%v", i, c, off[i][c], on[i][c])
					}
				}
			}
		})
	}
}

// TestNDPDecisionPattern verifies the paper's per-query NDP outcomes
// (§VII-C): Q6/Q12/Q14/Q15 push on lineitem; Q11/Q17/Q19/Q20 get no NDP.
func TestNDPDecisionPattern(t *testing.T) {
	db := testDB(t)
	ndpOn := func(q Query) (anyNDP bool, reports []AccessReport) {
		db.Eng.Pool().Clear()
		env := NewEnv(db, true)
		if _, err := Run(env, exec.NewCtx(db.Eng), q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, r := range env.Reports {
			if r.Dec.NDPEnabled() {
				anyNDP = true
			}
		}
		return anyNDP, env.Reports
	}
	for _, name := range []string{"Q6", "Q12", "Q14", "Q15"} {
		q, _ := QueryByName(name)
		on, reports := ndpOn(q)
		if !on {
			var why []string
			for _, r := range reports {
				why = append(why, fmt.Sprintf("%s: %v", r.Spec.Table, r.Dec.Reasons))
			}
			t.Errorf("%s should use NDP; reasons: %v", name, why)
		}
	}
	for _, name := range []string{"Q11", "Q17", "Q19", "Q20"} {
		q, _ := QueryByName(name)
		on, reports := ndpOn(q)
		if on {
			for _, r := range reports {
				if r.Dec.NDPEnabled() {
					t.Errorf("%s: unexpected NDP on %s (%+v)", name, r.Spec.Table, r.Dec)
				}
			}
		}
	}
}

func TestQ6PushesAllThree(t *testing.T) {
	db := testDB(t)
	db.Eng.Pool().Clear()
	env := NewEnv(db, true)
	rows, err := Run(env, exec.NewCtx(db.Eng), Query{"Q6", Q6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("Q6 rows = %d", len(rows))
	}
	found := false
	for _, r := range env.Reports {
		if r.Spec.Table == "lineitem" {
			found = true
			if !r.Dec.Predicate || !r.Dec.Aggregation {
				t.Errorf("Q6 lineitem decision = %+v (%v)", r.Dec, r.Dec.Reasons)
			}
		}
	}
	if !found {
		t.Fatal("no lineitem access recorded")
	}
}

func TestQueryByName(t *testing.T) {
	if _, err := QueryByName("Q7"); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryByName("Q99"); err == nil {
		t.Fatal("unknown query should fail")
	}
	if len(Queries()) != 22 {
		t.Fatalf("expected 22 queries, got %d", len(Queries()))
	}
	if len(MicroQueries()) != 5 {
		t.Fatal("micro workload should have 5 queries")
	}
}

// TestNDPGroundTruthSF001 runs lineitem COUNT(*) and Q6 with NDP on at
// SF 0.01, where lineitem's primary index is three levels high, serially
// and in parallel, and checks them against answers computed from the
// generator's rows: 59 884 lineitems and Q6 revenue 792 030.40.
func TestNDPGroundTruthSF001(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H at SF 0.01 (~8 s)")
	}
	// Replay Load's generator calls so Orders draws the same stream.
	g := NewGen(0.01)
	g.Regions()
	g.Nations()
	g.Suppliers()
	g.Customers()
	g.Parts()
	g.PartSupps()
	_, lines := g.Orders()
	lo, hi := types.DateFromYMD(1994, 1, 1).I, types.DateFromYMD(1995, 1, 1).I
	var q6 int64
	for _, l := range lines {
		ship, disc := l[LShipdate].I, l[LDiscount].I
		if ship >= lo && ship < hi && disc >= 5 && disc <= 7 && l[LQuantity].I < 2400 {
			q6 += l[LExtendedprice].I * disc / types.DecimalScale
		}
	}
	if len(lines) != 59884 || q6 != 79203040 {
		t.Fatalf("generator gives %d lineitems and Q6 %d (scaled), want 59884 and 79203040", len(lines), q6)
	}

	c, err := testutil.NewCluster(testutil.Options{
		PoolPages: 512, PagesPerSlice: 32, LookAhead: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(c.Engine, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if h := db.Lineitem.Primary.Tree.Height(); h < 3 {
		t.Fatalf("lineitem primary index height %d, want >= 3", h)
	}
	cases := []struct {
		q    Query
		want types.Datum
	}{
		{Query{"Q0", Q0}, types.NewInt(int64(len(lines)))},
		{Query{"Q6", Q6}, types.NewDecimal(q6)},
	}
	for _, par := range []int{1, 4} {
		db.Eng.SetScanParallelism(par)
		for _, tc := range cases {
			db.Eng.Pool().Clear()
			env := NewEnv(db, true)
			rows, err := Run(env, exec.NewCtx(db.Eng), tc.q)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", tc.q.Name, par, err)
			}
			ndp := false
			for _, r := range env.Reports {
				ndp = ndp || (r.Spec.Table == "lineitem" && r.Dec.NDPEnabled())
			}
			if !ndp {
				t.Fatalf("%s: lineitem access did not use NDP", tc.q.Name)
			}
			if len(rows) != 1 || types.Compare(rows[0][0], tc.want) != 0 {
				t.Errorf("%s parallelism %d = %v, want %v", tc.q.Name, par, rows, tc.want)
			}
		}
	}
}
