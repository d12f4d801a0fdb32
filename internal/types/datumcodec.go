package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Self-describing single-datum codec, used by NDP descriptors and by the
// aggregate-state blobs attached to REC_STATUS_NDP_AGGREGATE records.

// EncodeDatum appends a kind-tagged encoding of d to dst.
func EncodeDatum(dst []byte, d Datum) []byte {
	dst = append(dst, byte(d.K))
	switch d.K {
	case KindNull:
	case KindInt, KindDecimal, KindDate:
		dst = binary.AppendVarint(dst, d.I)
	case KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.F))
		dst = append(dst, b[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(d.S)))
		dst = append(dst, d.S...)
	}
	return dst
}

// DecodeDatum parses one kind-tagged datum, returning it and the bytes
// consumed.
func DecodeDatum(buf []byte) (Datum, int, error) {
	if len(buf) == 0 {
		return Null(), 0, fmt.Errorf("types: empty datum")
	}
	k := Kind(buf[0])
	off := 1
	switch k {
	case KindNull:
		return Null(), off, nil
	case KindInt, KindDecimal, KindDate:
		v, n := binary.Varint(buf[off:])
		if n <= 0 {
			return Null(), 0, fmt.Errorf("types: truncated datum int")
		}
		return Datum{K: k, I: v}, off + n, nil
	case KindFloat:
		if len(buf) < off+8 {
			return Null(), 0, fmt.Errorf("types: truncated datum float")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))), off + 8, nil
	case KindString:
		l, n := binary.Uvarint(buf[off:])
		if n <= 0 || l > uint64(len(buf)-off-n) {
			return Null(), 0, fmt.Errorf("types: truncated datum string")
		}
		off += n
		return NewString(string(buf[off : off+int(l)])), off + int(l), nil
	default:
		return Null(), 0, fmt.Errorf("types: unknown datum kind %d", k)
	}
}
