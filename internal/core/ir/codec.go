package ir

import (
	"encoding/binary"
	"fmt"
	"math"

	"taurus/internal/types"
)

// Binary encoding of IR programs.
//
// The encoded program is embedded in the NDP descriptor, which Page
// Stores receive as "a type-less byte stream" (§IV-D) — so this codec is
// self-describing and defensively decoded. Layout:
//
//	magic "TIR1"
//	uvarint numRegs, numCols
//	uvarint nConsts, then each datum (kind byte + payload)
//	uvarint nLists, then each [start,end) pair
//	uvarint nInstrs, then each instruction (op, sub, a, b, c, d)

var irMagic = [4]byte{'T', 'I', 'R', '1'}

// Encode serializes the program.
func (p *Program) Encode() []byte {
	buf := make([]byte, 0, 16+len(p.Instrs)*8)
	buf = append(buf, irMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(p.NumRegs))
	buf = binary.AppendUvarint(buf, uint64(p.NumCols))
	buf = binary.AppendUvarint(buf, uint64(len(p.Consts)))
	for _, d := range p.Consts {
		buf = appendDatum(buf, d)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Lists)))
	for _, l := range p.Lists {
		buf = binary.AppendUvarint(buf, uint64(l[0]))
		buf = binary.AppendUvarint(buf, uint64(l[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		buf = append(buf, byte(in.Op), in.Sub)
		buf = binary.AppendUvarint(buf, uint64(in.A))
		buf = binary.AppendUvarint(buf, uint64(in.B))
		buf = binary.AppendUvarint(buf, uint64(in.C))
		buf = binary.AppendUvarint(buf, uint64(in.D))
	}
	return buf
}

// Decode parses and validates an encoded program.
func Decode(buf []byte) (*Program, error) {
	r := reader{buf: buf}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil || magic != irMagic {
		return nil, fmt.Errorf("ir: bad magic")
	}
	p := &Program{}
	numRegs, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	numCols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if numRegs > 1<<16 || numCols > 1<<16 {
		return nil, fmt.Errorf("ir: implausible register/column counts %d/%d", numRegs, numCols)
	}
	p.NumRegs, p.NumCols = int(numRegs), int(numCols)
	nConsts, err := r.count("constant")
	if err != nil {
		return nil, err
	}
	p.Consts = make([]types.Datum, nConsts)
	for i := range p.Consts {
		p.Consts[i], err = r.datum()
		if err != nil {
			return nil, err
		}
	}
	nLists, err := r.count("list")
	if err != nil {
		return nil, err
	}
	if nLists > nConsts+1 {
		return nil, fmt.Errorf("ir: implausible list count %d", nLists)
	}
	p.Lists = make([][2]uint16, nLists)
	for i := range p.Lists {
		s, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		e, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if s > math.MaxUint16 || e > math.MaxUint16 {
			return nil, fmt.Errorf("ir: list range overflow")
		}
		p.Lists[i] = [2]uint16{uint16(s), uint16(e)}
	}
	nInstrs, err := r.count("instruction")
	if err != nil {
		return nil, err
	}
	p.Instrs = make([]Instr, nInstrs)
	for i := range p.Instrs {
		var op, sub byte
		if op, err = r.byte(); err != nil {
			return nil, err
		}
		if sub, err = r.byte(); err != nil {
			return nil, err
		}
		var a, b, c, d uint64
		if a, err = r.uvarint(); err != nil {
			return nil, err
		}
		if b, err = r.uvarint(); err != nil {
			return nil, err
		}
		if c, err = r.uvarint(); err != nil {
			return nil, err
		}
		if d, err = r.uvarint(); err != nil {
			return nil, err
		}
		if a > math.MaxUint16 || b > math.MaxUint16 || c > math.MaxUint16 || d > math.MaxUint16 {
			return nil, fmt.Errorf("ir: instr %d operand overflow", i)
		}
		p.Instrs[i] = Instr{Op: Opcode(op), Sub: sub, A: uint16(a), B: uint16(b), C: uint16(c), D: uint16(d)}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func appendDatum(buf []byte, d types.Datum) []byte {
	buf = append(buf, byte(d.K))
	switch d.K {
	case types.KindNull:
	case types.KindInt, types.KindDecimal, types.KindDate:
		buf = binary.AppendVarint(buf, d.I)
	case types.KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.F))
		buf = append(buf, b[:]...)
	case types.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(d.S)))
		buf = append(buf, d.S...)
	}
	return buf
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("ir: truncated program")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) bytes(dst []byte) error {
	if r.off+len(dst) > len(r.buf) {
		return fmt.Errorf("ir: truncated program")
	}
	copy(dst, r.buf[r.off:])
	r.off += len(dst)
	return nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ir: truncated uvarint")
	}
	r.off += n
	return v, nil
}

// count reads a length or element count and bounds it by the bytes
// left: every element takes at least one byte, so a larger count is
// corrupt, and a short input cannot make the decoder allocate or slice
// beyond its own size.
func (r *reader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if left := len(r.buf) - r.off; v > uint64(left) {
		return 0, fmt.Errorf("ir: %s count %d exceeds the %d bytes left", what, v, left)
	}
	return int(v), nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ir: truncated varint")
	}
	r.off += n
	return v, nil
}

func (r *reader) datum() (types.Datum, error) {
	k, err := r.byte()
	if err != nil {
		return types.Null(), err
	}
	switch types.Kind(k) {
	case types.KindNull:
		return types.Null(), nil
	case types.KindInt, types.KindDecimal, types.KindDate:
		v, err := r.varint()
		if err != nil {
			return types.Null(), err
		}
		return types.Datum{K: types.Kind(k), I: v}, nil
	case types.KindFloat:
		var b [8]byte
		if err := r.bytes(b[:]); err != nil {
			return types.Null(), err
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))), nil
	case types.KindString:
		l, err := r.count("string byte")
		if err != nil {
			return types.Null(), err
		}
		s := string(r.buf[r.off : r.off+l])
		r.off += l
		return types.NewString(s), nil
	default:
		return types.Null(), fmt.Errorf("ir: unknown datum kind %d", k)
	}
}
