package core

import (
	"fmt"

	"taurus/internal/core/ir"
	"taurus/internal/expr"
	"taurus/internal/types"
)

// AggState is the partial-aggregation state for one AggSpec. The state
// attached to a REC_STATUS_NDP_AGGREGATE record is one AggState per
// pushed aggregate.
type AggState struct {
	// Count is the row count (COUNT/COUNT(*)) or, for SUM, the number
	// of non-NULL inputs folded in (needed so SUM over zero rows merges
	// as "no value" rather than zero).
	Count int64
	// Val holds the running SUM/MIN/MAX value; unset when Count == 0
	// for SUM and when no value seen for MIN/MAX.
	Val types.Datum
	// Has reports whether Val is meaningful.
	Has bool
}

// aggEval evaluates the aggregate argument for a row: either a direct
// column load or an IR program run by ir.Program.Eval. Decoded once,
// it is read-only and shared by every Aggregator built from it.
type aggEval struct {
	spec AggSpec
	prog *ir.Program // nil when ArgCol >= 0 or COUNT(*)
}

// aggEvals decodes the IR argument programs of aggs.
func aggEvals(aggs []AggSpec) ([]aggEval, error) {
	evals := make([]aggEval, len(aggs))
	for i, s := range aggs {
		evals[i].spec = s
		if len(s.ArgIR) > 0 {
			p, err := ir.Decode(s.ArgIR)
			if err != nil {
				return nil, fmt.Errorf("core: bad agg %d arg IR: %w", i, err)
			}
			evals[i].prog = p
		}
	}
	return evals, nil
}

// Aggregator accumulates rows into per-spec states. It is the shared
// kernel used by the Page Store plugin (partial aggregation) and by the
// frontend when completing skipped pages.
type Aggregator struct {
	evals  []aggEval
	states []AggState
	regs   []types.Datum // register file for the argument programs
}

// NewAggregator builds an aggregator for agg specs, decoding their IR
// argument programs. The frontend builds one per scan partition; a
// Processor decodes its descriptor's programs once and builds each
// page's aggregator from them without decoding.
func NewAggregator(aggs []AggSpec) (*Aggregator, error) {
	evals, err := aggEvals(aggs)
	if err != nil {
		return nil, err
	}
	return newAggregator(evals), nil
}

func newAggregator(evals []aggEval) *Aggregator {
	numRegs := 0
	for _, e := range evals {
		if e.prog != nil {
			numRegs = max(numRegs, e.prog.NumRegs)
		}
	}
	return &Aggregator{
		evals:  evals,
		states: make([]AggState, len(evals)),
		regs:   make([]types.Datum, numRegs),
	}
}

// Reset clears the accumulated states (new group).
func (a *Aggregator) Reset() {
	for i := range a.states {
		a.states[i] = AggState{}
	}
}

// Empty reports whether nothing has been accumulated since Reset.
func (a *Aggregator) Empty() bool {
	for _, s := range a.states {
		if s.Count != 0 || s.Has {
			return false
		}
	}
	return true
}

// arg computes the aggregate argument for the row, with regs as the
// program's register file; ok=false means the argument is NULL.
func (e *aggEval) arg(row types.Row, regs []types.Datum) (types.Datum, bool) {
	var v types.Datum
	switch {
	case e.prog != nil:
		v = e.prog.Eval(row, regs)
	case e.spec.ArgCol >= 0:
		v = row[e.spec.ArgCol]
	default:
		return types.Null(), false
	}
	return v, !v.IsNull()
}

// AccumulateRow folds one row into the states. A MIN/MAX argument that
// returns a string on some rows and a number on others is an error.
func (a *Aggregator) AccumulateRow(row types.Row) error {
	for i := range a.evals {
		e := &a.evals[i]
		st := &a.states[i]
		switch e.spec.Fn {
		case AggCountStar:
			st.Count++
		case AggCount:
			if _, ok := e.arg(row, a.regs); ok {
				st.Count++
			}
		case AggSum:
			v, ok := e.arg(row, a.regs)
			if !ok {
				continue
			}
			if !st.Has {
				st.Val, st.Has = v, true
			} else {
				st.Val = expr.Arith(expr.OpAdd, st.Val, v)
			}
			st.Count++
		case AggMin, AggMax:
			if v, ok := e.arg(row, a.regs); ok {
				if err := foldExtreme(st, v, e.spec.Fn); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// foldExtreme keeps v in st when it is the new MIN or MAX. types.Compare
// panics on a string against a non-string, and a crafted argument
// program can return both kinds, so the mix is an error here.
func foldExtreme(st *AggState, v types.Datum, fn AggFn) error {
	if !st.Has {
		st.Val, st.Has = v, true
		return nil
	}
	if (v.K == types.KindString) != (st.Val.K == types.KindString) {
		return fmt.Errorf("core: %v over values of kinds %v and %v", fn, st.Val.K, v.K)
	}
	if c := types.Compare(v, st.Val); (fn == AggMin && c < 0) || (fn == AggMax && c > 0) {
		st.Val = v
	}
	return nil
}

// MergeStates folds previously-encoded partial states (from another page
// or another worker) into the accumulator.
func (a *Aggregator) MergeStates(states []AggState) error {
	if len(states) != len(a.states) {
		return fmt.Errorf("core: merging %d states into %d aggregates", len(states), len(a.states))
	}
	for i := range states {
		in := states[i]
		st := &a.states[i]
		switch fn := a.evals[i].spec.Fn; fn {
		case AggCountStar, AggCount:
			st.Count += in.Count
		case AggSum:
			if in.Has {
				if !st.Has {
					st.Val, st.Has = in.Val, true
				} else {
					st.Val = expr.Arith(expr.OpAdd, st.Val, in.Val)
				}
				st.Count += in.Count
			}
		case AggMin, AggMax:
			if in.Has {
				if err := foldExtreme(st, in.Val, fn); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// States returns the current states (aliased; copy before Reset).
func (a *Aggregator) States() []AggState { return a.states }

// EncodeAggStates appends the binary form of the states to dst. This is
// the blob appended to the base record payload of an NDP aggregate
// record.
func EncodeAggStates(dst []byte, states []AggState) []byte {
	for _, s := range states {
		dst = appendVarint(dst, s.Count)
		if s.Has {
			dst = append(dst, 1)
			dst = types.EncodeDatum(dst, s.Val)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeAggStates parses n states from buf.
func DecodeAggStates(buf []byte, n int) ([]AggState, int, error) {
	out := make([]AggState, n)
	off := 0
	for i := 0; i < n; i++ {
		c, m := varint(buf[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("core: truncated agg state count")
		}
		off += m
		out[i].Count = c
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("core: truncated agg state flag")
		}
		has := buf[off]
		off++
		if has != 0 {
			d, m, err := types.DecodeDatum(buf[off:])
			if err != nil {
				return nil, 0, err
			}
			out[i].Val, out[i].Has = d, true
			off += m
		}
	}
	return out, off, nil
}

// Small varint helpers (package-local to avoid importing encoding/binary
// at every call site).

func appendVarint(dst []byte, v int64) []byte {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	for uv >= 0x80 {
		dst = append(dst, byte(uv)|0x80)
		uv >>= 7
	}
	return append(dst, byte(uv))
}

func varint(buf []byte) (int64, int) {
	var uv uint64
	var shift uint
	for i, b := range buf {
		uv |= uint64(b&0x7F) << shift
		if b < 0x80 {
			v := int64(uv >> 1)
			if uv&1 != 0 {
				v = ^v
			}
			return v, i + 1
		}
		shift += 7
		if shift > 63 {
			break
		}
	}
	return 0, 0
}
