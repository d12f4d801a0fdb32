// Package wal defines the redo log records that flow from the database
// master through the Storage Abstraction Layer to Log Stores (for
// durability) and Page Stores (to keep pages up to date), as described in
// the Taurus architecture overview (§II): "The master ... make[s]
// modifications to database pages persistent by synchronously writing log
// records ... A Page Store receives log records from multiple masters for
// the pages it hosts, and applies the log records to bring pages
// up-to-date."
//
// Records are physiological: they name a page and describe a deterministic
// mutation of it, so that every replica of a slice converges to an
// identical page image, byte for byte. This determinism is load-bearing —
// later log records reference record heap offsets produced by earlier
// ones.
package wal

import (
	"encoding/binary"
	"fmt"
)

// Type enumerates redo record types.
type Type uint8

const (
	// TypeFormatPage initializes a page (B+ tree node): a fresh one, or
	// an existing root rewritten one level up when it is raised.
	TypeFormatPage Type = iota + 1
	// TypeInsertRec inserts a record into a page after a given offset.
	TypeInsertRec
	// TypeDeleteMark sets or clears a record's delete mark.
	TypeDeleteMark
	// TypeSetTrxID rewrites a record's transaction id (used when an
	// update rewrites a row in place).
	TypeSetTrxID
	// TypeSetLinks updates a page's prev/next leaf links.
	TypeSetLinks
	// TypeCompact rebuilds a page dropping delete-marked records.
	TypeCompact
	// TypeUpdateRec replaces the record at Off with a new payload and
	// transaction id, keeping its position in the key-order chain. The
	// previous version is preserved in the frontend's undo log, not in
	// the redo stream.
	TypeUpdateRec
	// TypeCatalog carries a durable catalog event (CREATE TABLE /
	// CREATE INDEX) in Payload, so the frontend's data dictionary can be
	// rebuilt from the same log that rebuilds the pages. Catalog records
	// use PageID 0 (reserved), flow to Log Stores only, and are never
	// applied to pages.
	TypeCatalog
)

// Record is one redo log record. Field use depends on Type:
//
//	FormatPage: PageID, IndexID, Level, Payload (empty, or the one node
//	            pointer a raised root starts with)
//	InsertRec:  PageID, Off (prev record offset), RecType, TrxID, Payload
//	DeleteMark: PageID, Off (record offset), Flag (1=mark, 0=clear)
//	SetTrxID:   PageID, Off, TrxID
//	SetLinks:   PageID, Prev, Next
//	Compact:    PageID
type Record struct {
	LSN     uint64
	Type    Type
	PageID  uint64
	IndexID uint64
	Level   uint16
	Off     uint32
	RecType uint8
	Flag    uint8
	TrxID   uint64
	Prev    uint64
	Next    uint64
	Payload []byte
}

// Encode appends the binary form of the record to dst.
func (r *Record) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = append(dst, byte(r.Type))
	dst = binary.LittleEndian.AppendUint64(dst, r.PageID)
	switch r.Type {
	case TypeFormatPage:
		dst = binary.LittleEndian.AppendUint64(dst, r.IndexID)
		dst = binary.LittleEndian.AppendUint16(dst, r.Level)
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	case TypeInsertRec:
		dst = binary.LittleEndian.AppendUint32(dst, r.Off)
		dst = append(dst, r.RecType)
		dst = binary.LittleEndian.AppendUint64(dst, r.TrxID)
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	case TypeDeleteMark:
		dst = binary.LittleEndian.AppendUint32(dst, r.Off)
		dst = append(dst, r.Flag)
	case TypeSetTrxID:
		dst = binary.LittleEndian.AppendUint32(dst, r.Off)
		dst = binary.LittleEndian.AppendUint64(dst, r.TrxID)
	case TypeSetLinks:
		dst = binary.LittleEndian.AppendUint64(dst, r.Prev)
		dst = binary.LittleEndian.AppendUint64(dst, r.Next)
	case TypeCompact:
		// No extra fields.
	case TypeUpdateRec:
		dst = binary.LittleEndian.AppendUint32(dst, r.Off)
		dst = binary.LittleEndian.AppendUint64(dst, r.TrxID)
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	case TypeCatalog:
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return dst
}

// Decode parses one record from buf, returning it and the bytes consumed.
func Decode(buf []byte) (Record, int, error) {
	var r Record
	if len(buf) < 17 {
		return r, 0, fmt.Errorf("wal: truncated header")
	}
	r.LSN = binary.LittleEndian.Uint64(buf)
	r.Type = Type(buf[8])
	r.PageID = binary.LittleEndian.Uint64(buf[9:])
	off := 17
	need := func(n int) error {
		if len(buf) < off+n {
			return fmt.Errorf("wal: truncated record body (type %d)", r.Type)
		}
		return nil
	}
	// payload reads a uvarint length and that many bytes into r.Payload.
	payload := func() error {
		l, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return fmt.Errorf("wal: truncated payload length")
		}
		off += n
		if l > uint64(len(buf)-off) {
			return fmt.Errorf("wal: truncated record body (type %d)", r.Type)
		}
		r.Payload = append([]byte(nil), buf[off:off+int(l)]...)
		off += int(l)
		return nil
	}
	switch r.Type {
	case TypeFormatPage:
		if err := need(10); err != nil {
			return r, 0, err
		}
		r.IndexID = binary.LittleEndian.Uint64(buf[off:])
		r.Level = binary.LittleEndian.Uint16(buf[off+8:])
		off += 10
		if err := payload(); err != nil {
			return r, 0, err
		}
	case TypeInsertRec:
		if err := need(13); err != nil {
			return r, 0, err
		}
		r.Off = binary.LittleEndian.Uint32(buf[off:])
		r.RecType = buf[off+4]
		r.TrxID = binary.LittleEndian.Uint64(buf[off+5:])
		off += 13
		if err := payload(); err != nil {
			return r, 0, err
		}
	case TypeDeleteMark:
		if err := need(5); err != nil {
			return r, 0, err
		}
		r.Off = binary.LittleEndian.Uint32(buf[off:])
		r.Flag = buf[off+4]
		off += 5
	case TypeSetTrxID:
		if err := need(12); err != nil {
			return r, 0, err
		}
		r.Off = binary.LittleEndian.Uint32(buf[off:])
		r.TrxID = binary.LittleEndian.Uint64(buf[off+4:])
		off += 12
	case TypeSetLinks:
		if err := need(16); err != nil {
			return r, 0, err
		}
		r.Prev = binary.LittleEndian.Uint64(buf[off:])
		r.Next = binary.LittleEndian.Uint64(buf[off+8:])
		off += 16
	case TypeCompact:
	case TypeUpdateRec:
		if err := need(12); err != nil {
			return r, 0, err
		}
		r.Off = binary.LittleEndian.Uint32(buf[off:])
		r.TrxID = binary.LittleEndian.Uint64(buf[off+4:])
		off += 12
		if err := payload(); err != nil {
			return r, 0, err
		}
	case TypeCatalog:
		if err := payload(); err != nil {
			return r, 0, err
		}
	default:
		return r, 0, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return r, off, nil
}

// DecodeAll parses a buffer of concatenated records.
func DecodeAll(buf []byte) ([]Record, error) {
	var out []Record
	for len(buf) > 0 {
		r, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		buf = buf[n:]
	}
	return out, nil
}
