// Package ir implements the predicate intermediate representation that
// Taurus ships from the compute node to Page Stores.
//
// The paper converts pushed-down predicates into LLVM bitcode on the
// compute node and just-in-time compiles them to native code on storage
// nodes (§V-B2, Listing 4). This reproduction substitutes a small
// register-based IR with the same structure: expressions are compiled
// bottom-up into instructions over virtual registers, with explicit
// short-circuit branches ("shortcut may happen" in the paper's listing);
// the encoded program travels inside the NDP descriptor; and the Page
// Store decodes and validates it once per descriptor, keeps the
// *Program in the descriptor cache, and runs it with Program.Eval, a
// switch loop over the instructions. Pure Go cannot emit machine code,
// so there is no JIT: a closure-per-instruction stand-in was measured
// slower than both the switch loop and the frontend's tree walker (see
// eval.go). Eval is the only storage-side evaluator, and it must agree
// with the frontend's tree-walking evaluator on every input — the
// paper's correctness requirement that storage-side evaluation produce
// exactly the result of the hypothetical frontend evaluation.
//
// A Page Store cannot trust the descriptor bytes, so Decode bounds every
// count by the bytes left and Validate accepts only programs whose
// every run ends: operands in range, branch targets strictly ahead of
// their branch, and OpRet as the last instruction.
package ir

import (
	"fmt"

	"taurus/internal/types"
)

// Opcode is an IR instruction opcode.
type Opcode uint8

const (
	// OpLoadCol loads input column B into register A.
	OpLoadCol Opcode = iota
	// OpConst loads constant-pool entry B into register A.
	OpConst
	// OpCmp compares registers B and C with predicate Sub, storing the
	// tri-state boolean (0/1/NULL) in A. Mirrors llvm icmp/fcmp.
	OpCmp
	// OpAnd / OpOr combine tri-state booleans in B and C into A with SQL
	// three-valued logic. OpNot negates B into A.
	OpAnd
	OpOr
	OpNot
	// OpArith applies arithmetic Sub (see ArithKind) to B and C into A.
	OpArith
	// OpNeg arithmetically negates B into A.
	OpNeg
	// OpLike matches register B against the constant-pool pattern C,
	// storing the boolean in A. Sub=1 negates (NOT LIKE).
	OpLike
	// OpIn tests register B for membership in the constant-pool value
	// set C (a list constant), storing the tri-state result in A.
	OpIn
	// OpBetween tests B ∈ [C, D] into A (inclusive).
	OpBetween
	// OpIsNull stores into A whether B is NULL; Sub=1 inverts.
	OpIsNull
	// OpYear extracts the calendar year of the date in B into A.
	OpYear
	// OpMov copies register B into A (the reproduction's phi node).
	OpMov
	// OpBrFalse jumps to instruction C when register B is definitely
	// false (non-NULL zero). OpBrTrue jumps when definitely true.
	OpBrFalse
	OpBrTrue
	// OpJmp jumps unconditionally to C.
	OpJmp
	// OpRet returns register B as the program result.
	OpRet
)

// CmpKind enumerates comparison predicates for OpCmp.Sub.
type CmpKind uint8

const (
	CmpEQ CmpKind = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// ArithKind enumerates arithmetic operators for OpArith.Sub.
type ArithKind uint8

const (
	ArithAdd ArithKind = iota
	ArithSub
	ArithMul
	ArithDiv
)

// Instr is one IR instruction. A is the destination register; B and C are
// operand registers or, for branch targets and pool references, indices;
// D is a third operand register (OpBetween only). Sub refines the opcode.
type Instr struct {
	Op  Opcode
	Sub uint8
	A   uint16
	B   uint16
	C   uint16
	D   uint16
}

// Program is a compiled predicate: a straight-line instruction sequence
// with branches, a constant pool, and register/column requirements. The
// result is the tri-state boolean (or scalar) left by OpRet.
type Program struct {
	Instrs []Instr
	// Consts is the constant pool. List constants (for OpIn) are stored
	// as consecutive pool entries referenced via ListRanges.
	Consts []types.Datum
	// Lists maps an OpIn C-operand to a [start,end) range in Consts.
	Lists [][2]uint16
	// NumRegs is the register file size needed to run the program.
	NumRegs int
	// NumCols is the minimum input row arity.
	NumCols int
}

func (p *Program) String() string {
	out := ""
	for i, in := range p.Instrs {
		out += fmt.Sprintf("%3d: %s\n", i, formatInstr(in))
	}
	return out
}

var cmpNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge"}
var arithNames = [...]string{"add", "sub", "mul", "div"}

func formatInstr(in Instr) string {
	switch in.Op {
	case OpLoadCol:
		return fmt.Sprintf("%%r%d = load col %d", in.A, in.B)
	case OpConst:
		return fmt.Sprintf("%%r%d = const #%d", in.A, in.B)
	case OpCmp:
		return fmt.Sprintf("%%r%d = icmp %s %%r%d, %%r%d", in.A, cmpNames[in.Sub], in.B, in.C)
	case OpAnd:
		return fmt.Sprintf("%%r%d = and %%r%d, %%r%d", in.A, in.B, in.C)
	case OpOr:
		return fmt.Sprintf("%%r%d = or %%r%d, %%r%d", in.A, in.B, in.C)
	case OpNot:
		return fmt.Sprintf("%%r%d = not %%r%d", in.A, in.B)
	case OpArith:
		return fmt.Sprintf("%%r%d = %s %%r%d, %%r%d", in.A, arithNames[in.Sub], in.B, in.C)
	case OpNeg:
		return fmt.Sprintf("%%r%d = neg %%r%d", in.A, in.B)
	case OpLike:
		neg := ""
		if in.Sub == 1 {
			neg = "not_"
		}
		return fmt.Sprintf("%%r%d = %slike %%r%d, pat #%d", in.A, neg, in.B, in.C)
	case OpIn:
		return fmt.Sprintf("%%r%d = in %%r%d, list %d", in.A, in.B, in.C)
	case OpBetween:
		return fmt.Sprintf("%%r%d = between %%r%d, %%r%d, %%r%d", in.A, in.B, in.C, in.D)
	case OpIsNull:
		if in.Sub == 1 {
			return fmt.Sprintf("%%r%d = isnotnull %%r%d", in.A, in.B)
		}
		return fmt.Sprintf("%%r%d = isnull %%r%d", in.A, in.B)
	case OpYear:
		return fmt.Sprintf("%%r%d = year %%r%d", in.A, in.B)
	case OpMov:
		return fmt.Sprintf("%%r%d = mov %%r%d", in.A, in.B)
	case OpBrFalse:
		return fmt.Sprintf("br_false %%r%d, %d", in.B, in.C)
	case OpBrTrue:
		return fmt.Sprintf("br_true %%r%d, %d", in.B, in.C)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.C)
	case OpRet:
		return fmt.Sprintf("ret %%r%d", in.B)
	default:
		return fmt.Sprintf("op%d", in.Op)
	}
}

// Validate checks that the program is well formed: register and column
// operands in bounds, pool references valid, every branch target ahead
// of its branch, and OpRet as the last instruction. The last two make
// every run end: execution only moves forward and cannot fall off the
// end. The compiler emits nothing else (branches are patched to the
// instruction after the skipped operand, and OpRet closes the program).
// Page Stores validate every received program before execution — they
// cannot trust that the opaque descriptor bytes came from a
// well-behaved frontend.
func (p *Program) Validate() error {
	n := len(p.Instrs)
	if n == 0 {
		return fmt.Errorf("ir: empty program")
	}
	checkReg := func(r uint16) error {
		if int(r) >= p.NumRegs {
			return fmt.Errorf("ir: register r%d out of range (%d regs)", r, p.NumRegs)
		}
		return nil
	}
	checkTarget := func(i int, t uint16) error {
		if int(t) <= i || int(t) >= n {
			return fmt.Errorf("ir: branch target %d is not ahead of it within %d instrs", t, n)
		}
		return nil
	}
	if p.Instrs[n-1].Op != OpRet {
		return fmt.Errorf("ir: program does not end in ret")
	}
	for i, in := range p.Instrs {
		var err error
		switch in.Op {
		case OpLoadCol:
			if int(in.B) >= p.NumCols {
				return fmt.Errorf("ir: instr %d loads column %d beyond NumCols %d", i, in.B, p.NumCols)
			}
			err = checkReg(in.A)
		case OpConst:
			if int(in.B) >= len(p.Consts) {
				return fmt.Errorf("ir: instr %d references const #%d beyond pool %d", i, in.B, len(p.Consts))
			}
			err = checkReg(in.A)
		case OpCmp:
			if in.Sub > uint8(CmpGE) {
				return fmt.Errorf("ir: instr %d bad cmp predicate %d", i, in.Sub)
			}
			err = firstErr(checkReg(in.A), checkReg(in.B), checkReg(in.C))
		case OpAnd, OpOr, OpArith:
			if in.Op == OpArith && in.Sub > uint8(ArithDiv) {
				return fmt.Errorf("ir: instr %d bad arith kind %d", i, in.Sub)
			}
			err = firstErr(checkReg(in.A), checkReg(in.B), checkReg(in.C))
		case OpNot, OpNeg, OpIsNull, OpYear, OpMov:
			err = firstErr(checkReg(in.A), checkReg(in.B))
		case OpLike:
			if int(in.C) >= len(p.Consts) {
				return fmt.Errorf("ir: instr %d LIKE pattern #%d beyond pool", i, in.C)
			}
			if p.Consts[in.C].K != types.KindString {
				return fmt.Errorf("ir: instr %d LIKE pattern is not a string", i)
			}
			err = firstErr(checkReg(in.A), checkReg(in.B))
		case OpIn:
			if int(in.C) >= len(p.Lists) {
				return fmt.Errorf("ir: instr %d IN list %d beyond %d lists", i, in.C, len(p.Lists))
			}
			lr := p.Lists[in.C]
			if lr[0] > lr[1] || int(lr[1]) > len(p.Consts) {
				return fmt.Errorf("ir: instr %d IN list range [%d,%d) invalid", i, lr[0], lr[1])
			}
			err = firstErr(checkReg(in.A), checkReg(in.B))
		case OpBetween:
			err = firstErr(checkReg(in.A), checkReg(in.B), checkReg(in.C), checkReg(in.D))
		case OpBrFalse, OpBrTrue:
			err = firstErr(checkReg(in.B), checkTarget(i, in.C))
		case OpJmp:
			err = checkTarget(i, in.C)
		case OpRet:
			err = checkReg(in.B)
		default:
			return fmt.Errorf("ir: instr %d unknown opcode %d", i, in.Op)
		}
		if err != nil {
			return fmt.Errorf("ir: instr %d: %w", i, err)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
