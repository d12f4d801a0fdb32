package ir

import (
	"encoding/binary"
	"testing"
	"time"

	"taurus/internal/expr"
	"taurus/internal/types"
)

// hugeStringProgram encodes a program whose one string constant claims
// a length of 2^63 + 7 bytes: a bound of off+int(l) wraps negative.
func hugeStringProgram() []byte {
	b := append([]byte(nil), irMagic[:]...)
	b = binary.AppendUvarint(b, 1) // numRegs
	b = binary.AppendUvarint(b, 0) // numCols
	b = binary.AppendUvarint(b, 1) // nConsts
	b = append(b, byte(types.KindString))
	b = binary.AppendUvarint(b, 1<<63+7)
	return append(b, "abc"...)
}

// craftedProgram is an encoded program no frontend sends.
type craftedProgram struct {
	name string
	enc  []byte
	// valid marks programs Decode accepts: they crashed a Page Store
	// only at run time, or only through the descriptor around them.
	valid bool
}

// craftedSeeds are the programs that crashed or hung a Page Store
// before Decode, Validate and the evaluator's comparisons refused them.
func craftedSeeds() []craftedProgram {
	return []craftedProgram{
		{name: "huge string length", enc: hugeStringProgram()},
		// jmp 2; ret r0; const r0 #0 — runs off the end after the const.
		{name: "falls off the end", enc: (&Program{NumRegs: 1, Consts: []types.Datum{types.NewInt(0)},
			Instrs: []Instr{{Op: OpJmp, C: 2}, {Op: OpRet}, {Op: OpConst}}}).Encode()},
		// jmp 0; ret r0 — never returns.
		{name: "backward jump", enc: (&Program{NumRegs: 1,
			Instrs: []Instr{{Op: OpJmp}, {Op: OpRet}}}).Encode()},
		// An aggregate argument loading column 3: only the descriptor
		// can check its width against the output row.
		{name: "argument column 3", valid: true, enc: (&Program{NumRegs: 1, NumCols: 4,
			Instrs: []Instr{{Op: OpLoadCol, B: 3}, {Op: OpRet}}}).Encode()},
		// A string constant compared with an integer constant.
		{name: "string against int", valid: true, enc: (&Program{NumRegs: 3,
			Consts: []types.Datum{types.NewString("a"), types.NewInt(1)},
			Instrs: []Instr{{Op: OpConst, A: 0}, {Op: OpConst, A: 1, B: 1},
				{Op: OpCmp, A: 2, B: 0, C: 1}, {Op: OpRet, B: 2}}}).Encode()},
	}
}

// fuzzRows are rows of numCols datums, one row per kind the row codec
// produces, so a program meets every column type a descriptor can
// declare.
func fuzzRows(numCols int) []types.Row {
	kinds := []types.Datum{types.Null(), types.NewInt(-7), types.NewFloat(2.5),
		types.NewDecimal(150), types.NewDate(9000), types.NewString("ab%c")}
	rows := make([]types.Row, len(kinds))
	for i, d := range kinds {
		rows[i] = make(types.Row, numCols)
		for c := range rows[i] {
			rows[i][c] = d
		}
	}
	return rows
}

// FuzzDecode checks that Decode never panics on any input, and that a
// program it accepts, run by Eval, returns on a row of NumCols
// datums of any kind: a Page Store runs what it decodes from a
// descriptor it cannot trust.
func FuzzDecode(f *testing.F) {
	for _, c := range craftedSeeds() {
		f.Add(c.enc)
	}
	e := expr.Or(expr.And(expr.GT(expr.Col(0, "a"), expr.ConstInt(1)),
		expr.Like(expr.Col(1, "s"), expr.ConstString("x%"))),
		expr.In(expr.Col(2, "c"), expr.ConstInt(3), expr.ConstString("z")))
	p, err := Compile(e, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		regs := make([]types.Datum, p.NumRegs)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, row := range fuzzRows(p.NumCols) {
				p.Eval(row, regs)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("program did not return:\n%s", p)
		}
	})
}

// TestDecodeRejectsCraftedPrograms names each crafted case's refusal.
func TestDecodeRejectsCraftedPrograms(t *testing.T) {
	for _, c := range craftedSeeds() {
		if _, err := Decode(c.enc); (err == nil) != c.valid {
			t.Errorf("%s: Decode error %v, want valid=%v", c.name, err, c.valid)
		}
	}
}
