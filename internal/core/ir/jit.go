package ir

import (
	"taurus/internal/expr"
	"taurus/internal/types"
)

// arithFused is the arithmetic kernel shared with the tree walker so the
// JIT cannot drift from frontend semantics.
func arithFused(op expr.Op, a, b types.Datum) types.Datum {
	return expr.Arith(op, a, b)
}

// JIT compilation.
//
// The paper's Page Stores just-in-time compile the received LLVM bitcode
// into architecture-specific native code before the first call (§V-B2,
// step 4). Pure-Go cannot emit machine code, so the closest equivalent is
// direct-threaded code: each instruction becomes a fused closure with its
// operands, constants, and branch targets pre-resolved, and execution is
// an indirect call chain with no opcode decoding. It is the only
// storage-side evaluator; BenchmarkIRVsInterpreter measures it against
// the frontend's tree walker.

// Compiled is a JIT-compiled program. Create per worker thread via
// Program.Compile; not safe for concurrent use because of the register
// file, matching how Page Store worker threads each JIT (or fetch from
// the descriptor cache and clone) their own executable state.
type Compiled struct {
	steps []step
	regs  []types.Datum
}

// step executes one fused instruction and returns the next step index.
type step func(regs []types.Datum, row types.Row) int

const stepReturn = -1

// CompileProgram lowers a validated program into threaded code.
func CompileProgram(p *Program) *Compiled {
	c := &Compiled{
		steps: make([]step, len(p.Instrs)),
		regs:  make([]types.Datum, p.NumRegs),
	}
	for i, in := range p.Instrs {
		c.steps[i] = fuse(p, i, in)
	}
	return c
}

// Clone returns an executable copy sharing the immutable threaded code
// but with a private register file; used by the descriptor cache to hand
// each worker thread its own evaluator without re-JITting.
func (c *Compiled) Clone() *Compiled {
	return &Compiled{steps: c.steps, regs: make([]types.Datum, len(c.regs))}
}

// Run evaluates the compiled program against row.
func (c *Compiled) Run(row types.Row) types.Datum {
	regs := c.regs
	pc := 0
	for pc >= 0 {
		pc = c.steps[pc](regs, row)
	}
	return regs[len(regs)-1] // by convention fuse(OpRet) stores here
}

// RunBool evaluates the program as a WHERE predicate (NULL → false).
func (c *Compiled) RunBool(row types.Row) bool {
	v := c.Run(row)
	return !v.IsNull() && v.I != 0
}

// fuse builds the closure for instruction i. Operand indices, constants,
// list slices, and jump targets are captured at compile time.
func fuse(p *Program, i int, in Instr) step {
	next := i + 1
	a, b, cc, d := int(in.A), int(in.B), int(in.C), int(in.D)
	switch in.Op {
	case OpLoadCol:
		return func(regs []types.Datum, row types.Row) int {
			regs[a] = row[b]
			return next
		}
	case OpConst:
		v := p.Consts[in.B]
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = v
			return next
		}
	case OpCmp:
		k := CmpKind(in.Sub)
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalCmp(k, regs[b], regs[cc])
			return next
		}
	case OpAnd:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalAnd(regs[b], regs[cc])
			return next
		}
	case OpOr:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalOr(regs[b], regs[cc])
			return next
		}
	case OpNot:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalNot(regs[b])
			return next
		}
	case OpArith:
		op := arithExprOp(ArithKind(in.Sub))
		return func(regs []types.Datum, _ types.Row) int {
			x, y := regs[b], regs[cc]
			if x.IsNull() || y.IsNull() {
				regs[a] = types.Null()
			} else {
				regs[a] = arithFused(op, x, y)
			}
			return next
		}
	case OpNeg:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalNeg(regs[b])
			return next
		}
	case OpLike:
		pattern := p.Consts[in.C].S
		negate := in.Sub == 1
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalLike(regs[b], pattern, negate)
			return next
		}
	case OpIn:
		lr := p.Lists[in.C]
		list := p.Consts[lr[0]:lr[1]]
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalIn(regs[b], list)
			return next
		}
	case OpBetween:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalBetween(regs[b], regs[cc], regs[d])
			return next
		}
	case OpIsNull:
		negate := in.Sub == 1
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalIsNull(regs[b], negate)
			return next
		}
	case OpYear:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = evalYear(regs[b])
			return next
		}
	case OpMov:
		return func(regs []types.Datum, _ types.Row) int {
			regs[a] = regs[b]
			return next
		}
	case OpBrFalse:
		return func(regs []types.Datum, _ types.Row) int {
			v := regs[b]
			if !v.IsNull() && v.I == 0 {
				return cc
			}
			return next
		}
	case OpBrTrue:
		return func(regs []types.Datum, _ types.Row) int {
			v := regs[b]
			if !v.IsNull() && v.I != 0 {
				return cc
			}
			return next
		}
	case OpJmp:
		return func(_ []types.Datum, _ types.Row) int { return cc }
	case OpRet:
		last := p.NumRegs - 1
		return func(regs []types.Datum, _ types.Row) int {
			regs[last] = regs[b]
			return stepReturn
		}
	default:
		panic("ir: unfusable opcode")
	}
}
