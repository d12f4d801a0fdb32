package wal

import (
	"encoding/binary"
	"fmt"
)

// CatalogKind enumerates durable catalog events.
type CatalogKind uint8

const (
	// CatalogCreateTable records a table definition (full schema plus
	// primary key ordinals) under its primary index id.
	CatalogCreateTable CatalogKind = iota + 1
	// CatalogCreateIndex records a secondary index: the indexed table
	// ordinals (primary key ordinals are appended by the engine).
	CatalogCreateIndex
)

// CatalogCol mirrors types.Column without importing it (wal sits below
// types in the dependency order).
type CatalogCol struct {
	Name     string
	Kind     uint8
	FixedLen uint32
	AvgLen   uint32
	NotNull  bool
}

// CatalogEntry is the payload of a TypeCatalog record. It carries
// everything the frontend needs to re-register a table or secondary
// index after a restart, its B+ tree root included: the root page never
// moves, and it is formatted before the entry is logged.
type CatalogEntry struct {
	Kind    CatalogKind
	IndexID uint64
	// Root is the index's B+ tree root page (0 for a barrier).
	Root uint64
	// Table is the owning table name; Index names a secondary index.
	Table string
	Index string
	// Cols is the table schema (CatalogCreateTable only).
	Cols []CatalogCol
	// Ords are schema ordinals: the primary key columns for a table,
	// the indexed table columns for a secondary index.
	Ords []int
}

func appendCatString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// EncodeCatalog serializes the entry for a TypeCatalog record payload.
func (e *CatalogEntry) EncodeCatalog(dst []byte) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, e.IndexID)
	dst = binary.AppendUvarint(dst, e.Root)
	dst = appendCatString(dst, e.Table)
	dst = appendCatString(dst, e.Index)
	dst = binary.AppendUvarint(dst, uint64(len(e.Cols)))
	for _, c := range e.Cols {
		dst = appendCatString(dst, c.Name)
		dst = append(dst, c.Kind)
		dst = binary.AppendUvarint(dst, uint64(c.FixedLen))
		dst = binary.AppendUvarint(dst, uint64(c.AvgLen))
		if c.NotNull {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Ords)))
	for _, o := range e.Ords {
		dst = binary.AppendUvarint(dst, uint64(o))
	}
	return dst
}

type catReader struct {
	buf []byte
	off int
}

func (r *catReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated catalog entry")
	}
	r.off += n
	return v, nil
}

func (r *catReader) str() (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if r.off+int(l) > len(r.buf) {
		return "", fmt.Errorf("wal: truncated catalog string")
	}
	s := string(r.buf[r.off : r.off+int(l)])
	r.off += int(l)
	return s, nil
}

func (r *catReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("wal: truncated catalog entry")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// DecodeCatalog parses a TypeCatalog record payload.
func DecodeCatalog(payload []byte) (*CatalogEntry, error) {
	r := &catReader{buf: payload}
	kind, err := r.byte()
	if err != nil {
		return nil, err
	}
	e := &CatalogEntry{Kind: CatalogKind(kind)}
	if e.Kind != CatalogCreateTable && e.Kind != CatalogCreateIndex {
		return nil, fmt.Errorf("wal: unknown catalog kind %d", kind)
	}
	if e.IndexID, err = r.uvarint(); err != nil {
		return nil, err
	}
	if e.Root, err = r.uvarint(); err != nil {
		return nil, err
	}
	if e.Table, err = r.str(); err != nil {
		return nil, err
	}
	if e.Index, err = r.str(); err != nil {
		return nil, err
	}
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<16 {
		return nil, fmt.Errorf("wal: implausible catalog column count %d", ncols)
	}
	e.Cols = make([]CatalogCol, ncols)
	for i := range e.Cols {
		c := &e.Cols[i]
		if c.Name, err = r.str(); err != nil {
			return nil, err
		}
		if c.Kind, err = r.byte(); err != nil {
			return nil, err
		}
		fl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		al, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		nn, err := r.byte()
		if err != nil {
			return nil, err
		}
		c.FixedLen, c.AvgLen, c.NotNull = uint32(fl), uint32(al), nn != 0
	}
	nords, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nords > 1<<16 {
		return nil, fmt.Errorf("wal: implausible catalog ordinal count %d", nords)
	}
	e.Ords = make([]int, nords)
	for i := range e.Ords {
		o, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		e.Ords[i] = int(o)
	}
	return e, nil
}
