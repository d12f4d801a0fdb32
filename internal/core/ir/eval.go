package ir

import (
	"taurus/internal/expr"
	"taurus/internal/types"
)

// Evaluation helpers behind the JIT's fused instructions. They share
// the frontend's kernels (types.Compare, expr.Arith, expr.LikeMatch,
// expr.YearOfEpochDays), so storage-side evaluation cannot drift from
// the tree walker's.

var (
	dTrue  = types.NewInt(1)
	dFalse = types.NewInt(0)
)

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
