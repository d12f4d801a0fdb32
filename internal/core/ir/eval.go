package ir

import (
	"taurus/internal/expr"
	"taurus/internal/types"
)

// Evaluation: the storage-side evaluator is one switch loop over the
// validated instructions. The paper JIT-compiles the predicate to
// native code (§V-B2); pure Go cannot emit machine code, and the
// closure-per-instruction threaded code that stood in for it was slower
// than both this loop and the frontend's tree walker on the TPC-H Q6
// predicate (BenchmarkIRVsInterpreter, 2-vCPU VM, medians of 5
// interleaved runs: switch 162 ns, tree walk 182 ns, threaded code
// 228 ns). The helpers below share the frontend's kernels
// (types.Compare, expr.Arith, expr.LikeMatch, expr.YearOfEpochDays), so
// storage-side evaluation cannot drift from the tree walker's.

var (
	dTrue  = types.NewInt(1)
	dFalse = types.NewInt(0)
)

// Eval runs the program over row and returns the value its OpRet names.
// regs is the register file and must hold at least NumRegs datums; its
// contents on entry do not matter. The program must have passed
// Validate and row must hold NumCols datums: then every run ends and
// every register, column and pool index is in range. Eval allocates
// nothing, so one regs slice serves every row of a page.
func (p *Program) Eval(row types.Row, regs []types.Datum) types.Datum {
	ins := p.Instrs
	for pc := 0; ; {
		in := &ins[pc]
		pc++
		switch in.Op {
		case OpLoadCol:
			regs[in.A] = row[in.B]
		case OpConst:
			regs[in.A] = p.Consts[in.B]
		case OpCmp:
			regs[in.A] = evalCmp(CmpKind(in.Sub), regs[in.B], regs[in.C])
		case OpAnd:
			regs[in.A] = evalAnd(regs[in.B], regs[in.C])
		case OpOr:
			regs[in.A] = evalOr(regs[in.B], regs[in.C])
		case OpNot:
			regs[in.A] = evalNot(regs[in.B])
		case OpArith:
			x, y := regs[in.B], regs[in.C]
			if x.IsNull() || y.IsNull() {
				regs[in.A] = types.Null()
			} else {
				regs[in.A] = expr.Arith(arithExprOp(ArithKind(in.Sub)), x, y)
			}
		case OpNeg:
			regs[in.A] = evalNeg(regs[in.B])
		case OpLike:
			regs[in.A] = evalLike(regs[in.B], p.Consts[in.C].S, in.Sub == 1)
		case OpIn:
			lr := p.Lists[in.C]
			regs[in.A] = evalIn(regs[in.B], p.Consts[lr[0]:lr[1]])
		case OpBetween:
			regs[in.A] = evalBetween(regs[in.B], regs[in.C], regs[in.D])
		case OpIsNull:
			regs[in.A] = evalIsNull(regs[in.B], in.Sub == 1)
		case OpYear:
			regs[in.A] = evalYear(regs[in.B])
		case OpMov:
			regs[in.A] = regs[in.B]
		case OpBrFalse:
			if v := regs[in.B]; !v.IsNull() && v.I == 0 {
				pc = int(in.C)
			}
		case OpBrTrue:
			if v := regs[in.B]; !v.IsNull() && v.I != 0 {
				pc = int(in.C)
			}
		case OpJmp:
			pc = int(in.C)
		case OpRet:
			return regs[in.B]
		}
	}
}

// incomparable reports a string against a non-string, which
// types.Compare refuses with a panic. The compiler never emits such a
// comparison over a well-typed row, but a crafted descriptor can (a
// string constant against an integer column): the comparison is NULL.
func incomparable(a, b types.Datum) bool {
	return (a.K == types.KindString) != (b.K == types.KindString)
}

func evalCmp(k CmpKind, a, b types.Datum) types.Datum {
	if a.IsNull() || b.IsNull() || incomparable(a, b) {
		return types.Null()
	}
	c := types.Compare(a, b)
	var ok bool
	switch k {
	case CmpEQ:
		ok = c == 0
	case CmpNE:
		ok = c != 0
	case CmpLT:
		ok = c < 0
	case CmpLE:
		ok = c <= 0
	case CmpGT:
		ok = c > 0
	case CmpGE:
		ok = c >= 0
	}
	if ok {
		return dTrue
	}
	return dFalse
}

func evalAnd(a, b types.Datum) types.Datum {
	if !a.IsNull() && a.I == 0 {
		return dFalse
	}
	if !b.IsNull() && b.I == 0 {
		return dFalse
	}
	if a.IsNull() || b.IsNull() {
		return types.Null()
	}
	return dTrue
}

func evalOr(a, b types.Datum) types.Datum {
	if !a.IsNull() && a.I != 0 {
		return dTrue
	}
	if !b.IsNull() && b.I != 0 {
		return dTrue
	}
	if a.IsNull() || b.IsNull() {
		return types.Null()
	}
	return dFalse
}

func evalNot(a types.Datum) types.Datum {
	if a.IsNull() {
		return types.Null()
	}
	if a.I != 0 {
		return dFalse
	}
	return dTrue
}

func evalNeg(a types.Datum) types.Datum {
	if a.IsNull() {
		return types.Null()
	}
	if a.K == types.KindFloat {
		return types.NewFloat(-a.F)
	}
	return types.Datum{K: a.K, I: -a.I}
}

func evalLike(a types.Datum, pattern string, negate bool) types.Datum {
	if a.IsNull() {
		return types.Null()
	}
	m := expr.LikeMatch(a.S, pattern)
	if negate {
		m = !m
	}
	if m {
		return dTrue
	}
	return dFalse
}

func evalIn(x types.Datum, list []types.Datum) types.Datum {
	if x.IsNull() {
		return types.Null()
	}
	sawNull := false
	for _, v := range list {
		if v.IsNull() || incomparable(x, v) {
			sawNull = true
			continue
		}
		if types.Compare(x, v) == 0 {
			return dTrue
		}
	}
	if sawNull {
		return types.Null()
	}
	return dFalse
}

func evalBetween(x, lo, hi types.Datum) types.Datum {
	if x.IsNull() || lo.IsNull() || hi.IsNull() || incomparable(x, lo) || incomparable(x, hi) {
		return types.Null()
	}
	if types.Compare(x, lo) >= 0 && types.Compare(x, hi) <= 0 {
		return dTrue
	}
	return dFalse
}

func evalIsNull(a types.Datum, negate bool) types.Datum {
	isNull := a.IsNull()
	if negate {
		isNull = !isNull
	}
	if isNull {
		return dTrue
	}
	return dFalse
}

func evalYear(a types.Datum) types.Datum {
	if a.IsNull() {
		return types.Null()
	}
	return types.NewInt(int64(expr.YearOfEpochDays(int32(a.I))))
}

func arithExprOp(k ArithKind) expr.Op {
	switch k {
	case ArithAdd:
		return expr.OpAdd
	case ArithSub:
		return expr.OpSub
	case ArithMul:
		return expr.OpMul
	default:
		return expr.OpDiv
	}
}
