package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row binary codec.
//
// Rows are stored inside pages (and shipped inside NDP pages) in a compact
// binary format loosely modelled on InnoDB's COMPACT row format:
//
//	[null bitmap][col 0][col 1]...
//
// The null bitmap has one bit per column (rounded up to whole bytes).
// Fixed-width kinds are stored as fixed-size little-endian payloads;
// strings are stored as a uvarint length followed by the bytes. The codec
// is schema-driven: decoding requires the same ordered column kinds that
// were used for encoding, exactly as an InnoDB record can only be parsed
// with its index metadata (which is why the NDP descriptor carries the
// column type list, §IV-C1).

// EncodeRow appends the encoded row to dst and returns the extended slice.
func EncodeRow(dst []byte, schema *Schema, row Row) []byte {
	if len(row) != len(schema.Cols) {
		panic(fmt.Sprintf("types: row arity %d != schema arity %d", len(row), len(schema.Cols)))
	}
	nb := (len(row) + 7) / 8
	bitmapAt := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	var scratch [8]byte
	for i, d := range row {
		if d.IsNull() {
			dst[bitmapAt+i/8] |= 1 << uint(i%8)
			continue
		}
		switch schema.Cols[i].Kind {
		case KindInt, KindDecimal:
			binary.LittleEndian.PutUint64(scratch[:], uint64(d.I))
			dst = append(dst, scratch[:8]...)
		case KindFloat:
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(d.F))
			dst = append(dst, scratch[:8]...)
		case KindDate:
			binary.LittleEndian.PutUint32(scratch[:4], uint32(int32(d.I)))
			dst = append(dst, scratch[:4]...)
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(d.S)))
			dst = append(dst, d.S...)
		default:
			panic(fmt.Sprintf("types: cannot encode kind %v", schema.Cols[i].Kind))
		}
	}
	return dst
}

// DecodeRow decodes one row from buf into out (which must have schema
// arity) and returns the number of bytes consumed.
func DecodeRow(buf []byte, schema *Schema, out Row) (int, error) {
	n := len(schema.Cols)
	if len(out) != n {
		return 0, fmt.Errorf("types: out arity %d != schema arity %d", len(out), n)
	}
	nb := (n + 7) / 8
	if len(buf) < nb {
		return 0, fmt.Errorf("types: row truncated in null bitmap")
	}
	bitmap := buf[:nb]
	off := nb
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = Null()
			continue
		}
		switch schema.Cols[i].Kind {
		case KindInt, KindDecimal:
			if len(buf) < off+8 {
				return 0, fmt.Errorf("types: row truncated in column %d", i)
			}
			v := int64(binary.LittleEndian.Uint64(buf[off:]))
			out[i] = Datum{K: schema.Cols[i].Kind, I: v}
			off += 8
		case KindFloat:
			if len(buf) < off+8 {
				return 0, fmt.Errorf("types: row truncated in column %d", i)
			}
			out[i] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case KindDate:
			if len(buf) < off+4 {
				return 0, fmt.Errorf("types: row truncated in column %d", i)
			}
			out[i] = NewDate(int32(binary.LittleEndian.Uint32(buf[off:])))
			off += 4
		case KindString:
			l, n2 := binary.Uvarint(buf[off:])
			if n2 <= 0 || l > uint64(len(buf)-off-n2) {
				return 0, fmt.Errorf("types: row truncated in string column %d", i)
			}
			off += n2
			out[i] = NewString(string(buf[off : off+int(l)]))
			off += int(l)
		default:
			return 0, fmt.Errorf("types: cannot decode kind %v", schema.Cols[i].Kind)
		}
	}
	return off, nil
}

// EncodedLen returns the exact encoded size of the row without encoding it.
func EncodedLen(schema *Schema, row Row) int {
	n := (len(row) + 7) / 8
	for i, d := range row {
		if d.IsNull() {
			continue
		}
		switch schema.Cols[i].Kind {
		case KindInt, KindDecimal, KindFloat:
			n += 8
		case KindDate:
			n += 4
		case KindString:
			n += uvarintLen(uint64(len(d.S))) + len(d.S)
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Key encoding.
//
// Index keys need a memcmp-comparable encoding so the B+ tree can compare
// keys as byte strings. Integers are encoded big-endian with the sign bit
// flipped; dates likewise; strings are length-terminated with an 0x00 0x01
// escape (like MyRocks/CockroachDB) so that prefixes order correctly.

// EncodeKey appends a memcmp-comparable encoding of the datums to dst.
func EncodeKey(dst []byte, key Row) []byte {
	for _, d := range key {
		dst = encodeKeyDatum(dst, d)
	}
	return dst
}

func encodeKeyDatum(dst []byte, d Datum) []byte {
	switch d.K {
	case KindNull:
		return append(dst, 0x00)
	case KindInt, KindDecimal, KindDate:
		var b [9]byte
		b[0] = 0x02
		binary.BigEndian.PutUint64(b[1:], uint64(d.I)^(1<<63))
		return append(dst, b[:]...)
	case KindFloat:
		bits := math.Float64bits(d.F)
		if d.F >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		var b [9]byte
		b[0] = 0x03
		binary.BigEndian.PutUint64(b[1:], bits)
		return append(dst, b[:]...)
	case KindString:
		dst = append(dst, 0x04)
		for i := 0; i < len(d.S); i++ {
			c := d.S[i]
			if c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
				continue
			}
			dst = append(dst, c)
		}
		return append(dst, 0x00, 0x01)
	default:
		panic(fmt.Sprintf("types: cannot key-encode kind %v", d.K))
	}
}
