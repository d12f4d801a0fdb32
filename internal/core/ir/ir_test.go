package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"taurus/internal/expr"
	"taurus/internal/types"
)

// mustCompile compiles or fails the test.
func mustCompile(t *testing.T, e *expr.Expr, cols int) *Program {
	t.Helper()
	p, err := Compile(e, cols)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	return p
}

// run evaluates p over row with a fresh register file.
func run(p *Program, row types.Row) types.Datum {
	return p.Eval(row, make([]types.Datum, p.NumRegs))
}

// holds reads a predicate result as WHERE does: NULL is false.
func holds(v types.Datum) bool { return !v.IsNull() && v.I != 0 }

func TestCompileSimplePredicate(t *testing.T) {
	// The paper's Listing 4 predicate: (a > 1 AND b > 2) OR c >= 3.
	e := expr.Or(
		expr.And(expr.GT(expr.Col(0, "a"), expr.ConstInt(1)),
			expr.GT(expr.Col(1, "b"), expr.ConstInt(2))),
		expr.GE(expr.Col(2, "c"), expr.ConstInt(3)))
	p := mustCompile(t, e, 3)
	cases := []struct {
		a, b, c int64
		want    bool
	}{
		{2, 3, 0, true},  // left arm true
		{2, 1, 0, false}, // left fails on b, right fails
		{0, 9, 3, true},  // right arm true (shortcut on a)
		{0, 0, 2, false}, // all fail
		{2, 3, 9, true},  // both arms true
	}
	for _, c := range cases {
		row := types.Row{types.NewInt(c.a), types.NewInt(c.b), types.NewInt(c.c)}
		if got := holds(run(p, row)); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", row, got, c.want)
		}
	}
	// The disassembly should show the short-circuit branches.
	asm := p.String()
	if !strings.Contains(asm, "br_false") || !strings.Contains(asm, "br_true") {
		t.Errorf("expected short-circuit branches in:\n%s", asm)
	}
}

func TestShortCircuitSkipsRightSide(t *testing.T) {
	// With a=false the AND must not read column 1; give it an
	// out-of-range ordinal masked by numCols=2 and a row where reading
	// col 1 would be observable. We verify by confirming correct result
	// with a NULL right side that would otherwise poison the result.
	e := expr.And(expr.GT(expr.Col(0, "a"), expr.ConstInt(10)),
		expr.EQ(expr.Col(1, "b"), expr.ConstInt(1)))
	p := mustCompile(t, e, 2)
	row := types.Row{types.NewInt(0), types.Null()}
	// false AND NULL = false: the shortcut and the 3VL combine agree.
	if v := run(p, row); v.IsNull() || v.I != 0 {
		t.Errorf("false AND NULL = %v, want definite false", v)
	}
}

func TestEligible(t *testing.T) {
	ok := expr.And(expr.GT(expr.Col(0, "a"), expr.ConstInt(1)),
		expr.Like(expr.Col(1, "s"), expr.ConstString("x%")))
	if !Eligible(ok) {
		t.Error("simple predicate should be eligible")
	}
	bad := expr.EQ(expr.New(expr.OpSubstr, expr.Col(0, "s"), expr.ConstInt(1), expr.ConstInt(2)),
		expr.ConstString("ab"))
	if Eligible(bad) {
		t.Error("SUBSTRING is not in the NDP allowed list (§V-B1)")
	}
	if Eligible(nil) {
		t.Error("nil is not eligible")
	}
	if _, err := Compile(bad, 1); err == nil {
		t.Error("Compile should reject ineligible trees")
	}
}

func TestCompileRejectsNonConstPatterns(t *testing.T) {
	// LIKE with a non-constant pattern and IN with non-constant list
	// elements are rejected (MySQL would allow them; our Page Store
	// engine keeps them residual).
	e := expr.Like(expr.Col(0, "a"), expr.Col(1, "b"))
	if _, err := Compile(e, 2); err == nil {
		t.Error("LIKE col should not compile")
	}
	e2 := expr.In(expr.Col(0, "a"), expr.Col(1, "b"))
	if _, err := Compile(e2, 2); err == nil {
		t.Error("IN col should not compile")
	}
}

// randExpr builds a random NDP-eligible predicate over numeric columns
// 0..2 (int), 3 (date), 4 (string).
func randExpr(r *rand.Rand, depth int) *expr.Expr {
	if depth <= 0 {
		// Leaf comparison.
		switch r.Intn(6) {
		case 0:
			return expr.GT(expr.Col(r.Intn(3), ""), expr.ConstInt(r.Int63n(100)-50))
		case 1:
			return expr.LE(expr.Col(r.Intn(3), ""), expr.ConstInt(r.Int63n(100)-50))
		case 2:
			return expr.Between(expr.Col(r.Intn(3), ""), expr.ConstInt(-20), expr.ConstInt(int64(r.Intn(40))))
		case 3:
			return expr.EQ(expr.Year(expr.Col(3, "")), expr.ConstInt(int64(1992+r.Intn(8))))
		case 4:
			pats := []string{"a%", "%b", "%c%", "a_c", "%"}
			return expr.Like(expr.Col(4, ""), expr.ConstString(pats[r.Intn(len(pats))]))
		default:
			return expr.In(expr.Col(r.Intn(3), ""),
				expr.ConstInt(r.Int63n(20)), expr.ConstInt(r.Int63n(20)), expr.ConstInt(r.Int63n(20)))
		}
	}
	switch r.Intn(4) {
	case 0:
		return expr.And(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return expr.Or(randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return expr.Not(randExpr(r, depth-1))
	default:
		// Arithmetic comparison: col+col*k > c
		lhs := expr.Add(expr.Col(r.Intn(3), ""), expr.Mul(expr.Col(r.Intn(3), ""), expr.ConstInt(int64(r.Intn(5)))))
		return expr.GT(lhs, expr.ConstInt(r.Int63n(200)-100))
	}
}

func randRow(r *rand.Rand) types.Row {
	row := make(types.Row, 5)
	for i := 0; i < 3; i++ {
		if r.Intn(8) == 0 {
			row[i] = types.Null()
		} else {
			row[i] = types.NewInt(r.Int63n(100) - 50)
		}
	}
	row[3] = types.NewDate(int32(8000 + r.Intn(4000)))
	ss := []string{"abc", "axc", "bbb", "", "cab", "aaa"}
	row[4] = types.NewString(ss[r.Intn(len(ss))])
	return row
}

// Property: tree-walker ≡ Eval ≡ Eval over decode(encode) of the program,
// for random predicates and rows — the paper's §V-B2 correctness
// requirement ("filtering... on Page Stores produce the same result as
// that produced by the hypothetical non-NDP evaluation on the SQL node").
func TestThreeWayEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 1+r.Intn(3))
		p, err := Compile(e, 5)
		if err != nil {
			t.Logf("compile error: %v", err)
			return false
		}
		dec, err := Decode(p.Encode())
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		regs := make([]types.Datum, p.NumRegs)
		for i := 0; i < 20; i++ {
			row := randRow(r)
			want := e.Eval(row)
			for name, got := range map[string]types.Datum{
				"eval": p.Eval(row, regs), "evalDec": dec.Eval(row, regs),
			} {
				if want.IsNull() != got.IsNull() || (!want.IsNull() && want.I != got.I) {
					t.Logf("seed %d %s: expr=%s row=%v want=%v got=%v", seed, name, e, row, want, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := expr.AndAll(
		expr.GE(expr.Col(0, "d"), expr.Const(types.DateFromYMD(1994, 1, 1))),
		expr.LT(expr.Col(0, "d"), expr.Const(types.DateFromYMD(1995, 1, 1))),
		expr.Between(expr.Col(1, "disc"), expr.Const(types.NewDecimal(5)), expr.Const(types.NewDecimal(7))),
		expr.LT(expr.Col(2, "qty"), expr.Const(types.NewFloat(24))),
		expr.In(expr.Col(3, "mode"), expr.ConstString("MAIL"), expr.ConstString("SHIP")),
	)
	p := mustCompile(t, e, 4)
	enc := p.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Instrs) != len(p.Instrs) || dec.NumRegs != p.NumRegs || dec.NumCols != p.NumCols {
		t.Fatal("round trip changed program shape")
	}
	for i := range p.Instrs {
		if p.Instrs[i] != dec.Instrs[i] {
			t.Fatalf("instr %d differs: %v vs %v", i, p.Instrs[i], dec.Instrs[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	e := expr.GT(expr.Col(0, "a"), expr.ConstInt(1))
	p := mustCompile(t, e, 1)
	enc := p.Encode()
	if _, err := Decode(enc[:3]); err == nil {
		t.Error("truncated magic should fail")
	}
	for cut := 4; cut < len(enc); cut += 3 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	bad := append([]byte{}, enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"empty", Program{NumRegs: 1}},
		{"no ret", Program{NumRegs: 1, NumCols: 1, Instrs: []Instr{{Op: OpLoadCol}}}},
		{"reg oob", Program{NumRegs: 1, NumCols: 1, Instrs: []Instr{{Op: OpLoadCol, A: 5}, {Op: OpRet}}}},
		{"col oob", Program{NumRegs: 2, NumCols: 1, Instrs: []Instr{{Op: OpLoadCol, A: 0, B: 3}, {Op: OpRet}}}},
		{"const oob", Program{NumRegs: 2, NumCols: 1, Instrs: []Instr{{Op: OpConst, A: 0, B: 9}, {Op: OpRet}}}},
		{"target oob", Program{NumRegs: 2, NumCols: 1, Instrs: []Instr{{Op: OpJmp, C: 99}, {Op: OpRet}}}},
		{"backward target", Program{NumRegs: 1, Instrs: []Instr{{Op: OpJmp, C: 0}, {Op: OpRet}}}},
		{"ret not last", Program{NumRegs: 1, Consts: []types.Datum{types.NewInt(0)},
			Instrs: []Instr{{Op: OpJmp, C: 2}, {Op: OpRet}, {Op: OpConst}}}},
		{"bad cmp", Program{NumRegs: 2, NumCols: 1, Instrs: []Instr{{Op: OpCmp, Sub: 99}, {Op: OpRet}}}},
		{"bad opcode", Program{NumRegs: 2, NumCols: 1, Instrs: []Instr{{Op: Opcode(200)}, {Op: OpRet}}}},
		{"in list oob", Program{NumRegs: 2, NumCols: 1, Instrs: []Instr{{Op: OpIn, C: 2}, {Op: OpRet}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
}

func TestDisassemblyIsStable(t *testing.T) {
	e := expr.And(expr.GT(expr.Col(0, "a"), expr.ConstInt(1)), expr.GE(expr.Col(1, "b"), expr.ConstInt(2)))
	p := mustCompile(t, e, 2)
	asm := p.String()
	for _, want := range []string{"load col 0", "icmp sgt", "icmp sge", "ret"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func BenchmarkIRVsInterpreter(b *testing.B) {
	// The §V-B2 ablation: classical tree-walking evaluation vs
	// the storage-side switch loop over the IR, on the TPC-H Q6-shaped
	// predicate.
	e := expr.AndAll(
		expr.GE(expr.Col(0, "l_shipdate"), expr.Const(types.DateFromYMD(1994, 1, 1))),
		expr.LT(expr.Col(0, "l_shipdate"), expr.Const(types.DateFromYMD(1995, 1, 1))),
		expr.Between(expr.Col(1, "l_discount"), expr.Const(types.NewDecimal(5)), expr.Const(types.NewDecimal(7))),
		expr.LT(expr.Col(2, "l_quantity"), expr.Const(types.NewDecimal(2400))),
	)
	p, err := Compile(e, 3)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range rows {
		rows[i] = types.Row{
			types.NewDate(int32(8400 + r.Intn(2000))),
			types.NewDecimal(int64(r.Intn(11))),
			types.NewDecimal(int64(100 * (1 + r.Intn(50)))),
		}
	}
	b.Run("TreeWalk", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if e.EvalBool(rows[i%len(rows)]) {
				n++
			}
		}
	})
	b.Run("IREval", func(b *testing.B) {
		regs := make([]types.Datum, p.NumRegs)
		n := 0
		for i := 0; i < b.N; i++ {
			if holds(p.Eval(rows[i%len(rows)], regs)) {
				n++
			}
		}
	})
}
