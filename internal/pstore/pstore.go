// Package pstore implements the Page Store's persistent checkpoint
// store. The paper's Page Stores materialize pages by applying redo
// records ("the log is the database"), but a page image that only lives
// in memory forces a restarted node to replay the durable log from the
// beginning. A checkpoint bounds that work: each slice's page images and
// applied LSN are written to disk periodically, so recovery becomes
// "load the newest valid checkpoint, replay the log tail above it" —
// and, once every replica of every slice has checkpointed past an LSN,
// the Log Stores can garbage-collect the records below it.
//
// Two artifact kinds live in a checkpoint directory:
//
//   - Slice checkpoints (slice-<tenant>-<id>.ckpt): one file per slice,
//     holding the latest image of every page plus the slice's applied
//     LSN. Written by Page Store nodes.
//   - The meta checkpoint (meta.ckpt): the database frontend's data
//     dictionary (encoded catalog entries), each index's current B+ tree
//     root, the allocator high-water marks, and the cluster watermark
//     the checkpoint set covers. Written by the frontend, because
//     catalog records never reach Page Stores.
//
// Every file is a sequence of CRC32-C framed records (the same framing
// discipline as internal/plog) and is written atomically: the content
// goes to a temp file, is fsynced, and is renamed over the previous
// checkpoint, so a crash mid-write leaves the old checkpoint intact. A
// file that fails validation — short, torn, or corrupt anywhere — is
// ignored wholesale and recovery falls back to log replay for its slice.
package pstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const (
	sliceMagic = 0x54434b31 // "TCK1": slice checkpoint header
	metaMagic  = 0x544d4b33 // "TMK3": meta checkpoint header
	// metaMagicTMK2 is the previous meta format, which carried an LSN
	// allocator mark; LoadMeta refuses it rather than fall back to a
	// full replay of a log GC may already have collected.
	metaMagicTMK2 = 0x544d4b32

	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
	metaName   = "meta" + ckptSuffix

	// frameHeader is u32 payload length + u32 CRC32-C over the payload.
	frameHeader = 4 + 4
	// maxFrameBytes bounds one frame (sanity check while loading; a
	// longer length field means a corrupt header).
	maxFrameBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// NoSync skips the fsyncs (tests and benchmarks that only exercise
	// the file format); the rename is still atomic.
	NoSync bool
}

// Store is one node's checkpoint directory.
type Store struct {
	opts Options

	mu        sync.Mutex
	lastWrite time.Time
}

// Open creates or opens the checkpoint directory.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("pstore: Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pstore: %w", err)
	}
	s := &Store{opts: opts}
	// Recover the checkpoint age across restarts from file mtimes, and
	// clear any temp file a crash mid-write left behind.
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("pstore: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(opts.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		if info, err := de.Info(); err == nil && info.ModTime().After(s.lastWrite) {
			s.lastWrite = info.ModTime()
		}
	}
	return s, nil
}

// Dir returns the checkpoint directory.
func (s *Store) Dir() string { return s.opts.Dir }

// LastCheckpoint returns when the newest checkpoint artifact was
// written (zero if the directory holds none).
func (s *Store) LastCheckpoint() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastWrite
}

// PageImage is one page of a slice checkpoint.
type PageImage struct {
	PageID uint64
	Data   []byte
}

// SliceCheckpoint is the durable image of one slice: the newest version
// of every page, all with LSN ≤ AppliedLSN.
type SliceCheckpoint struct {
	Tenant     uint32
	SliceID    uint32
	AppliedLSN uint64
	Pages      []PageImage
}

// Meta is the frontend's checkpoint: everything recovery needs that is
// not a page image.
type Meta struct {
	// AppliedLSN is the cluster watermark this checkpoint set covers:
	// every log record with LSN ≤ AppliedLSN is reflected in a durable
	// slice checkpoint, and the catalog below holds every DDL issued
	// before the meta was written. Recovery replays only records above
	// it; the Log Stores may truncate at or below it.
	AppliedLSN uint64
	// Allocator high-water marks at checkpoint time. The LSN allocator
	// resumes at the Log Stores' durable LSN instead, so it has none.
	MaxTrxID   uint64
	MaxPageID  uint64
	MaxIndexID uint64
	// Catalog holds the encoded wal.CatalogEntry payloads, each with its
	// index's root page, in creation order (tables before their
	// secondary indexes).
	Catalog [][]byte
}

// appendFrame encodes one [len][crc][payload] frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// errCorrupt marks any validation failure; callers treat the whole file
// as absent.
var errCorrupt = fmt.Errorf("pstore: corrupt checkpoint")

// nextFrame parses one frame from b, returning the payload and bytes
// consumed.
func nextFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHeader {
		return nil, 0, errCorrupt
	}
	length := binary.LittleEndian.Uint32(b)
	if length > maxFrameBytes {
		return nil, 0, errCorrupt
	}
	sum := binary.LittleEndian.Uint32(b[4:])
	end := frameHeader + int(length)
	if len(b) < end {
		return nil, 0, errCorrupt
	}
	payload = b[frameHeader:end]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, errCorrupt
	}
	return payload, end, nil
}

// writeAtomic writes data to name via a temp file + rename, fsyncing
// the file and the directory unless NoSync is set.
func (s *Store) writeAtomic(name string, data []byte) error {
	final := filepath.Join(s.opts.Dir, name)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pstore: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("pstore: %w", err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("pstore: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pstore: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pstore: %w", err)
	}
	if !s.opts.NoSync {
		if d, err := os.Open(s.opts.Dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	s.mu.Lock()
	s.lastWrite = time.Now()
	s.mu.Unlock()
	return nil
}

func sliceName(tenant, sliceID uint32) string {
	return fmt.Sprintf("slice-%08x-%08x%s", tenant, sliceID, ckptSuffix)
}

// WriteSlice atomically replaces the slice's checkpoint file. Returns
// the bytes written.
func (s *Store) WriteSlice(ck *SliceCheckpoint) (int64, error) {
	hdr := binary.LittleEndian.AppendUint32(nil, sliceMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, ck.Tenant)
	hdr = binary.LittleEndian.AppendUint32(hdr, ck.SliceID)
	hdr = binary.LittleEndian.AppendUint64(hdr, ck.AppliedLSN)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(ck.Pages)))
	buf := appendFrame(nil, hdr)
	var pageBuf []byte
	for _, pg := range ck.Pages {
		pageBuf = binary.LittleEndian.AppendUint64(pageBuf[:0], pg.PageID)
		pageBuf = append(pageBuf, pg.Data...)
		buf = appendFrame(buf, pageBuf)
	}
	if err := s.writeAtomic(sliceName(ck.Tenant, ck.SliceID), buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// parseSlice validates and decodes one slice checkpoint file.
func parseSlice(data []byte) (*SliceCheckpoint, error) {
	hdr, n, err := nextFrame(data)
	if err != nil {
		return nil, err
	}
	if len(hdr) != 4+4+4+8+4 || binary.LittleEndian.Uint32(hdr) != sliceMagic {
		return nil, errCorrupt
	}
	ck := &SliceCheckpoint{
		Tenant:     binary.LittleEndian.Uint32(hdr[4:]),
		SliceID:    binary.LittleEndian.Uint32(hdr[8:]),
		AppliedLSN: binary.LittleEndian.Uint64(hdr[12:]),
	}
	count := int(binary.LittleEndian.Uint32(hdr[20:]))
	data = data[n:]
	for i := 0; i < count; i++ {
		payload, n, err := nextFrame(data)
		if err != nil {
			return nil, err
		}
		if len(payload) < 8 {
			return nil, errCorrupt
		}
		ck.Pages = append(ck.Pages, PageImage{
			PageID: binary.LittleEndian.Uint64(payload),
			Data:   append([]byte(nil), payload[8:]...),
		})
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, errCorrupt // trailing garbage: treat as damaged
	}
	return ck, nil
}

// LoadSlices reads every slice checkpoint in the directory. Files that
// fail validation are skipped and reported by name — the caller falls
// back to full log replay for those slices.
func (s *Store) LoadSlices() (valid []*SliceCheckpoint, corrupt []string, err error) {
	ents, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("pstore: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "slice-") || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.opts.Dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("pstore: %w", err)
		}
		ck, perr := parseSlice(data)
		if perr != nil {
			corrupt = append(corrupt, name)
			continue
		}
		valid = append(valid, ck)
	}
	return valid, corrupt, nil
}

// WriteMeta atomically replaces the meta checkpoint.
func (s *Store) WriteMeta(m *Meta) error {
	p := binary.LittleEndian.AppendUint32(nil, metaMagic)
	p = binary.LittleEndian.AppendUint64(p, m.AppliedLSN)
	p = binary.LittleEndian.AppendUint64(p, m.MaxTrxID)
	p = binary.LittleEndian.AppendUint64(p, m.MaxPageID)
	p = binary.LittleEndian.AppendUint64(p, m.MaxIndexID)
	p = binary.AppendUvarint(p, uint64(len(m.Catalog)))
	for _, c := range m.Catalog {
		p = binary.AppendUvarint(p, uint64(len(c)))
		p = append(p, c...)
	}
	return s.writeAtomic(metaName, appendFrame(nil, p))
}

// LoadMeta reads the meta checkpoint. A missing or invalid file returns
// (nil, nil): recovery falls back to full log replay.
func (s *Store) LoadMeta() (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, metaName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pstore: %w", err)
	}
	p, n, ferr := nextFrame(data)
	if ferr == nil && n == len(data) && len(p) >= 4 && binary.LittleEndian.Uint32(p) == metaMagicTMK2 {
		return nil, fmt.Errorf("pstore: meta checkpoint %s has the TMK2 format, which this version does not read",
			filepath.Join(s.opts.Dir, metaName))
	}
	if ferr != nil || n != len(data) || len(p) < 4+4*8 || binary.LittleEndian.Uint32(p) != metaMagic {
		return nil, nil // damaged meta: recover by full replay
	}
	m := &Meta{
		AppliedLSN: binary.LittleEndian.Uint64(p[4:]),
		MaxTrxID:   binary.LittleEndian.Uint64(p[12:]),
		MaxPageID:  binary.LittleEndian.Uint64(p[20:]),
		MaxIndexID: binary.LittleEndian.Uint64(p[28:]),
	}
	r := p[36:]
	nCat, n := binary.Uvarint(r)
	if n <= 0 {
		return nil, nil
	}
	r = r[n:]
	for i := uint64(0); i < nCat; i++ {
		l, n := binary.Uvarint(r)
		if n <= 0 || len(r) < n+int(l) {
			return nil, nil
		}
		m.Catalog = append(m.Catalog, append([]byte(nil), r[n:n+int(l)]...))
		r = r[n+int(l):]
	}
	if len(r) != 0 {
		return nil, nil
	}
	return m, nil
}
