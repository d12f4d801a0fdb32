// Package cluster provides the network layer between the compute node
// (SAL) and the storage services (Log Stores and Page Stores): message
// codecs, an in-process transport with exact byte accounting, and a TCP
// transport.
//
// Both transports serialize every request and response through the same
// binary codec, so the byte counters measure exactly what would cross a
// real network. Those counters are the basis of the paper's
// network-traffic figures (Figs. 5 and 7): NDP's primary effect is that
// "data filtered out in Page Stores never travels over the wire".
package cluster

import (
	"encoding/binary"
	"fmt"

	"taurus/internal/health"
	"taurus/internal/obs"
)

// MsgType tags frames on the wire.
type MsgType uint8

const (
	// MsgWriteLogs carries redo records from the SAL to a Page Store
	// replica of one slice.
	MsgWriteLogs MsgType = iota + 1
	// MsgReadPage requests a single page at an LSN.
	MsgReadPage
	// MsgBatchRead requests a batch of pages at an LSN, optionally with
	// an NDP descriptor for near-data processing.
	MsgBatchRead
	// MsgLogAppend carries redo records to a Log Store for durability.
	MsgLogAppend
	// MsgCreateSlice asks a Page Store to host a new slice.
	MsgCreateSlice
	// MsgResp tags all successful responses; MsgErr tags failures.
	MsgResp
	MsgErr
	// MsgPageLSN asks a Page Store for a tenant's applied/persisted LSN
	// frontier (the input to the cluster-wide log GC watermark).
	MsgPageLSN
	// MsgLogTruncate asks a Log Store to garbage-collect records below
	// a watermark.
	MsgLogTruncate
	// 10, 11 and 12 were the pull tailer's requests (log read, LSN
	// advance, slice LSN). Retired; the numbers stay reserved so the
	// types below keep theirs, and decoding one is an unknown-type error.
	_
	_
	_
	// MsgLogSubscribe attaches a read replica to a Log Store's push
	// stream ("They also serve log records to read replicas", §II): the
	// store's hub multicasts framed record batches (MsgLogBatch) to the
	// subscriber's transport node from FromLSN on.
	MsgLogSubscribe
	// MsgLogUnsubscribe detaches a subscriber from the push stream.
	MsgLogUnsubscribe
	// MsgLogBatch is one pushed stream frame, Log Store → subscriber:
	// new records plus piggybacked durable-LSN and per-slice applied
	// frontiers — the inputs to a read replica's visible LSN.
	MsgLogBatch
	// MsgFrontier carries the master SAL's durable watermark and
	// per-slice applied frontier to the Log Stores — O(#LogStores) per
	// advance instead of O(#replicas) — where the stream hubs piggyback
	// it on the next pushed batch.
	MsgFrontier
	// MsgVersionPin lets a subscribed replica pin a Page Store version
	// floor (its visible LSN): version-chain trimming keeps the newest
	// image at or below every pin, so a lagging replica's reads stop
	// missing trimmed versions. LSN 0 clears the node's pin.
	MsgVersionPin
	// MsgPing is the health heartbeat: a tiny request answered from
	// memory whose pong carries the target's role and worst-check
	// status. The failure detector's Alive/Suspect/Dead verdicts are
	// driven by these.
	MsgPing
	// MsgHealthReport fetches a node's full health check report
	// (typed checks with evidence and runbook keys), sent every few
	// heartbeats and aggregated by the frontend into /cluster/health.
	MsgHealthReport
)

// Optional trace header. A request frame whose type byte has traceFlag
// set carries a fixed trace header before the body:
//
//	[type|0x80][8-byte LE TraceID][8-byte LE SpanID][1-byte flags][body]
//
// flags bit 0 = sampled. Untraced frames are byte-identical to the
// pre-trace wire format, and receivers ignore the flag bit for types
// they don't know — so old senders interoperate with new receivers and
// vice versa (mixed-version safe). Responses never carry the header:
// server-side spans stay in the server's own collector and are joined
// by trace ID at assembly time. MsgType values stay below 0x80.
const (
	traceFlag      MsgType = 0x80
	traceHeaderLen         = 17
)

// wrapTrace prefixes body with a trace header when tc is sampled;
// otherwise the frame is returned untouched.
func wrapTrace(t MsgType, body []byte, tc obs.TraceContext) (MsgType, []byte) {
	if !tc.Valid() {
		return t, body
	}
	out := make([]byte, traceHeaderLen+len(body))
	binary.LittleEndian.PutUint64(out[0:8], tc.TraceID)
	binary.LittleEndian.PutUint64(out[8:16], tc.SpanID)
	out[16] = 1 // sampled
	copy(out[traceHeaderLen:], body)
	return t | traceFlag, out
}

// unwrapTrace strips the trace header if the flag bit is set. Frames
// without the flag (every pre-trace sender) pass through unchanged
// with a zero context.
func unwrapTrace(t MsgType, body []byte) (MsgType, []byte, obs.TraceContext, error) {
	if t&traceFlag == 0 {
		return t, body, obs.TraceContext{}, nil
	}
	if len(body) < traceHeaderLen {
		return 0, nil, obs.TraceContext{}, fmt.Errorf("cluster: traced frame body %d bytes, shorter than %d-byte trace header", len(body), traceHeaderLen)
	}
	tc := obs.TraceContext{
		TraceID: binary.LittleEndian.Uint64(body[0:8]),
		SpanID:  binary.LittleEndian.Uint64(body[8:16]),
		Sampled: body[16]&1 != 0,
	}
	return t &^ traceFlag, body[traceHeaderLen:], tc, nil
}

// WriteLogsReq applies redo records to one slice replica.
type WriteLogsReq struct {
	Tenant  uint32
	SliceID uint32
	// Recs is the concatenated wal record encoding, already in LSN
	// order.
	Recs []byte
}

// ReadPageReq fetches one page version.
type ReadPageReq struct {
	Tenant  uint32
	SliceID uint32
	PageID  uint64
	// LSN selects the newest version ≤ LSN; 0 means latest.
	LSN uint64
}

// BatchReadReq is the NDP batch read of §IV-C4: a set of leaf page IDs
// from one slice, an LSN stamp, and an optional opaque NDP descriptor.
type BatchReadReq struct {
	Tenant  uint32
	SliceID uint32
	LSN     uint64
	PageIDs []uint64
	// Desc is the encoded NDP descriptor; empty requests plain pages.
	Desc []byte
	// Plugin names the DBMS-specific NDP plugin to interpret Desc.
	Plugin string
}

// BatchReadResp returns page images in request order. Pages may be
// regular images (NDP skipped under resource pressure), NDP pages, or
// header-only empty NDP pages.
type BatchReadResp struct {
	Pages [][]byte
	// Processed and Skipped count the NDP resource-control outcome.
	Processed uint32
	Skipped   uint32
}

// LogAppendReq appends records to a Log Store.
type LogAppendReq struct {
	Tenant uint32
	Recs   []byte
}

// CreateSliceReq provisions a slice on a Page Store.
type CreateSliceReq struct {
	Tenant  uint32
	SliceID uint32
}

// PageResp carries one page image.
type PageResp struct {
	Page []byte
}

// Ack carries the acknowledged LSN.
type Ack struct {
	LSN uint64
}

// PageLSNReq asks a Page Store node for the LSN frontier of a tenant's
// slices (Tenant 0 = all tenants).
type PageLSNReq struct {
	Tenant uint32
}

// PageLSNResp reports the node's frontier: the minimum applied and
// checkpoint-persisted LSN across the tenant's slices. PersistedLSN 0
// means at least one slice has no durable checkpoint.
type PageLSNResp struct {
	Slices       uint32
	AppliedLSN   uint64
	PersistedLSN uint64
}

// LogTruncateReq garbage-collects a Log Store below Watermark: records
// with LSN < Watermark are dropped, sealed segments wholly below it are
// deleted. The caller must have verified that every consumer (each Page
// Store replica of every slice) has durably persisted those records.
type LogTruncateReq struct {
	Tenant    uint32
	Watermark uint64
}

// LogGCResp reports one truncation: segments removed and bytes
// reclaimed on disk.
type LogGCResp struct {
	Removed uint32
	Bytes   uint64
}

// SliceLSNEntry is one slice's applied frontier: every record for the
// slice at or below AppliedLSN is applied on every replica of it.
type SliceLSNEntry struct {
	SliceID    uint32
	AppliedLSN uint64
}

// LogSubscribeReq attaches Node (a transport-reachable name the store
// pushes MsgLogBatch frames to) to the store's stream from FromLSN
// (exclusive). Window bounds the per-subscriber batch queue: a
// subscriber that falls further behind than the queue absorbs is
// disconnected rather than wedging the multicast.
type LogSubscribeReq struct {
	Tenant  uint32
	Node    string
	FromLSN uint64
	Window  uint32
}

// LogSubscribeResp acknowledges a subscription. When TruncatedLSN >
// FromLSN the store's log GC already collected records the subscriber
// still needs: the subscription is NOT established and the replica must
// resync from a checkpoint, then resubscribe above the watermark.
type LogSubscribeResp struct {
	DurableLSN   uint64
	TruncatedLSN uint64
}

// LogUnsubscribeReq detaches Node from the store's stream.
type LogUnsubscribeReq struct {
	Tenant uint32
	Node   string
}

// LogBatchReq is one pushed stream frame: records (concatenated wal
// encoding, LSN order, possibly empty for a frontier-only advance) plus
// everything a replica needs to advance its visible LSN without polling
// — the store's contiguous durable prefix, the master's durable
// watermark, and the per-slice applied frontier relayed from the SAL.
type LogBatchReq struct {
	Tenant uint32
	Recs   []byte
	Count  uint32
	// StreamLSN is the store's hole-free durable prefix: every record at
	// or below it has been pushed (or predates the subscription).
	StreamLSN uint64
	// MasterDurableLSN / Frontier relay the SAL's MsgFrontier state.
	MasterDurableLSN uint64
	TruncatedLSN     uint64
	Frontier         []SliceLSNEntry
}

// FrontierReq is the master SAL's coalesced frontier advance, sent to
// the Log Stores: the durable (commit) watermark and each slice's
// applied-on-all-replicas LSN.
type FrontierReq struct {
	Tenant     uint32
	DurableLSN uint64
	Slices     []SliceLSNEntry
}

// VersionPinReq pins (LSN > 0) or clears (LSN 0) Node's version floor
// on a Page Store.
type VersionPinReq struct {
	Tenant uint32
	Node   string
	LSN    uint64
}

// Encoding helpers. Frames are [type byte][body]; the transports add
// their own length prefixes.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil || r.off+int(l) > len(r.buf) {
		r.fail()
		return nil
	}
	b := append([]byte(nil), r.buf[r.off:r.off+int(l)]...)
	r.off += int(l)
	return b
}

func (r *wireReader) str() string { return string(r.bytes()) }

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: truncated message")
	}
}

// EncodeRequest serializes a request struct into a frame body.
func EncodeRequest(req any) (MsgType, []byte, error) {
	switch m := req.(type) {
	case *WriteLogsReq:
		b := appendU32(nil, m.Tenant)
		b = appendU32(b, m.SliceID)
		b = appendBytes(b, m.Recs)
		return MsgWriteLogs, b, nil
	case *ReadPageReq:
		b := appendU32(nil, m.Tenant)
		b = appendU32(b, m.SliceID)
		b = appendU64(b, m.PageID)
		b = appendU64(b, m.LSN)
		return MsgReadPage, b, nil
	case *BatchReadReq:
		b := appendU32(nil, m.Tenant)
		b = appendU32(b, m.SliceID)
		b = appendU64(b, m.LSN)
		b = binary.AppendUvarint(b, uint64(len(m.PageIDs)))
		for _, id := range m.PageIDs {
			b = appendU64(b, id)
		}
		b = appendBytes(b, m.Desc)
		b = appendString(b, m.Plugin)
		return MsgBatchRead, b, nil
	case *LogAppendReq:
		b := appendU32(nil, m.Tenant)
		b = appendBytes(b, m.Recs)
		return MsgLogAppend, b, nil
	case *CreateSliceReq:
		b := appendU32(nil, m.Tenant)
		b = appendU32(b, m.SliceID)
		return MsgCreateSlice, b, nil
	case *PageLSNReq:
		return MsgPageLSN, appendU32(nil, m.Tenant), nil
	case *LogTruncateReq:
		b := appendU32(nil, m.Tenant)
		b = appendU64(b, m.Watermark)
		return MsgLogTruncate, b, nil
	case *LogSubscribeReq:
		b := appendU32(nil, m.Tenant)
		b = appendString(b, m.Node)
		b = appendU64(b, m.FromLSN)
		b = appendU32(b, m.Window)
		return MsgLogSubscribe, b, nil
	case *LogUnsubscribeReq:
		b := appendU32(nil, m.Tenant)
		b = appendString(b, m.Node)
		return MsgLogUnsubscribe, b, nil
	case *LogBatchReq:
		b := appendU32(nil, m.Tenant)
		b = appendU32(b, m.Count)
		b = appendU64(b, m.StreamLSN)
		b = appendU64(b, m.MasterDurableLSN)
		b = appendU64(b, m.TruncatedLSN)
		b = appendSliceLSNs(b, m.Frontier)
		b = appendBytes(b, m.Recs)
		return MsgLogBatch, b, nil
	case *FrontierReq:
		b := appendU32(nil, m.Tenant)
		b = appendU64(b, m.DurableLSN)
		b = appendSliceLSNs(b, m.Slices)
		return MsgFrontier, b, nil
	case *VersionPinReq:
		b := appendU32(nil, m.Tenant)
		b = appendString(b, m.Node)
		b = appendU64(b, m.LSN)
		return MsgVersionPin, b, nil
	case *PingReq:
		b := appendString(nil, m.Node)
		b = appendU64(b, m.Seq)
		return MsgPing, b, nil
	case *HealthReportReq:
		return MsgHealthReport, appendString(nil, m.Node), nil
	default:
		return 0, nil, fmt.Errorf("cluster: unknown request type %T", req)
	}
}

func appendSliceLSNs(b []byte, entries []SliceLSNEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendU32(b, e.SliceID)
		b = appendU64(b, e.AppliedLSN)
	}
	return b
}

func (r *wireReader) sliceLSNs() []SliceLSNEntry {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > 1<<20 {
		r.fail()
		return nil
	}
	out := make([]SliceLSNEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, SliceLSNEntry{SliceID: r.u32(), AppliedLSN: r.u64()})
	}
	return out
}

// DecodeRequest parses a frame body into the request struct for t.
func DecodeRequest(t MsgType, body []byte) (any, error) {
	r := &wireReader{buf: body}
	switch t {
	case MsgWriteLogs:
		m := &WriteLogsReq{Tenant: r.u32(), SliceID: r.u32(), Recs: r.bytes()}
		return m, r.err
	case MsgReadPage:
		m := &ReadPageReq{Tenant: r.u32(), SliceID: r.u32(), PageID: r.u64(), LSN: r.u64()}
		return m, r.err
	case MsgBatchRead:
		m := &BatchReadReq{Tenant: r.u32(), SliceID: r.u32(), LSN: r.u64()}
		n := r.uvarint()
		if n > 1<<20 {
			return nil, fmt.Errorf("cluster: implausible batch size %d", n)
		}
		m.PageIDs = make([]uint64, n)
		for i := range m.PageIDs {
			m.PageIDs[i] = r.u64()
		}
		m.Desc = r.bytes()
		m.Plugin = r.str()
		return m, r.err
	case MsgLogAppend:
		m := &LogAppendReq{Tenant: r.u32(), Recs: r.bytes()}
		return m, r.err
	case MsgCreateSlice:
		m := &CreateSliceReq{Tenant: r.u32(), SliceID: r.u32()}
		return m, r.err
	case MsgPageLSN:
		m := &PageLSNReq{Tenant: r.u32()}
		return m, r.err
	case MsgLogTruncate:
		m := &LogTruncateReq{Tenant: r.u32(), Watermark: r.u64()}
		return m, r.err
	case MsgLogSubscribe:
		m := &LogSubscribeReq{Tenant: r.u32(), Node: r.str(), FromLSN: r.u64(), Window: r.u32()}
		return m, r.err
	case MsgLogUnsubscribe:
		m := &LogUnsubscribeReq{Tenant: r.u32(), Node: r.str()}
		return m, r.err
	case MsgLogBatch:
		m := &LogBatchReq{Tenant: r.u32(), Count: r.u32(), StreamLSN: r.u64(),
			MasterDurableLSN: r.u64(), TruncatedLSN: r.u64()}
		m.Frontier = r.sliceLSNs()
		m.Recs = r.bytes()
		return m, r.err
	case MsgFrontier:
		m := &FrontierReq{Tenant: r.u32(), DurableLSN: r.u64()}
		m.Slices = r.sliceLSNs()
		return m, r.err
	case MsgVersionPin:
		m := &VersionPinReq{Tenant: r.u32(), Node: r.str(), LSN: r.u64()}
		return m, r.err
	case MsgPing:
		m := &PingReq{Node: r.str(), Seq: r.u64()}
		return m, r.err
	case MsgHealthReport:
		m := &HealthReportReq{Node: r.str()}
		return m, r.err
	default:
		return nil, fmt.Errorf("cluster: unknown request msg type %d", t)
	}
}

// EncodeResponse serializes a response struct (or error) into a frame.
func EncodeResponse(resp any, respErr error) (MsgType, []byte, error) {
	if respErr != nil {
		return MsgErr, []byte(respErr.Error()), nil
	}
	switch m := resp.(type) {
	case *Ack:
		return MsgResp, append([]byte{respAck}, appendU64(nil, m.LSN)...), nil
	case *PageResp:
		return MsgResp, append([]byte{respPage}, appendBytes(nil, m.Page)...), nil
	case *BatchReadResp:
		b := []byte{respBatch}
		b = appendU32(b, m.Processed)
		b = appendU32(b, m.Skipped)
		b = binary.AppendUvarint(b, uint64(len(m.Pages)))
		for _, p := range m.Pages {
			b = appendBytes(b, p)
		}
		return MsgResp, b, nil
	case *PageLSNResp:
		b := []byte{respPageLSN}
		b = appendU32(b, m.Slices)
		b = appendU64(b, m.AppliedLSN)
		b = appendU64(b, m.PersistedLSN)
		return MsgResp, b, nil
	case *LogGCResp:
		b := []byte{respLogGC}
		b = appendU32(b, m.Removed)
		b = appendU64(b, m.Bytes)
		return MsgResp, b, nil
	case *LogSubscribeResp:
		b := []byte{respLogSubscribe}
		b = appendU64(b, m.DurableLSN)
		b = appendU64(b, m.TruncatedLSN)
		return MsgResp, b, nil
	case *PingResp:
		b := []byte{respPing}
		b = appendString(b, m.Node)
		b = appendString(b, m.Role)
		b = appendU64(b, m.Seq)
		b = append(b, byte(m.Status))
		return MsgResp, b, nil
	case *HealthReportResp:
		b := []byte{respHealthReport}
		b = appendReport(b, m.Report)
		return MsgResp, b, nil
	default:
		return 0, nil, fmt.Errorf("cluster: unknown response type %T", resp)
	}
}

const (
	respAck = iota + 1
	respPage
	respBatch
	respPageLSN
	respLogGC
	_ // 6, 7: the pull tailer's log-read and slice-LSN responses, retired;
	_ // reserved so the tags below keep their values
	respLogSubscribe
	respPing
	respHealthReport
)

// DecodeResponse parses a response frame.
func DecodeResponse(t MsgType, body []byte) (any, error) {
	if t == MsgErr {
		return nil, fmt.Errorf("cluster: remote error: %s", body)
	}
	if t != MsgResp {
		return nil, fmt.Errorf("cluster: unexpected response msg type %d", t)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("cluster: empty response")
	}
	r := &wireReader{buf: body[1:]}
	switch body[0] {
	case respAck:
		m := &Ack{LSN: r.u64()}
		return m, r.err
	case respPage:
		m := &PageResp{Page: r.bytes()}
		return m, r.err
	case respBatch:
		m := &BatchReadResp{Processed: r.u32(), Skipped: r.u32()}
		n := r.uvarint()
		if n > 1<<20 {
			return nil, fmt.Errorf("cluster: implausible page count %d", n)
		}
		m.Pages = make([][]byte, n)
		for i := range m.Pages {
			m.Pages[i] = r.bytes()
		}
		return m, r.err
	case respPageLSN:
		m := &PageLSNResp{Slices: r.u32(), AppliedLSN: r.u64(), PersistedLSN: r.u64()}
		return m, r.err
	case respLogGC:
		m := &LogGCResp{Removed: r.u32(), Bytes: r.u64()}
		return m, r.err
	case respLogSubscribe:
		m := &LogSubscribeResp{DurableLSN: r.u64(), TruncatedLSN: r.u64()}
		return m, r.err
	case respPing:
		m := &PingResp{Node: r.str(), Role: r.str(), Seq: r.u64(),
			Status: health.Status(r.byteVal())}
		return m, r.err
	case respHealthReport:
		m := &HealthReportResp{Report: r.report()}
		return m, r.err
	default:
		return nil, fmt.Errorf("cluster: unknown response tag %d", body[0])
	}
}
