package cluster

import (
	"sync"
	"time"

	"taurus/internal/obs"
)

// String names the message type for metric labels and logs.
func (t MsgType) String() string {
	switch t {
	case MsgWriteLogs:
		return "MsgWriteLogs"
	case MsgReadPage:
		return "MsgReadPage"
	case MsgBatchRead:
		return "MsgBatchRead"
	case MsgLogAppend:
		return "MsgLogAppend"
	case MsgCreateSlice:
		return "MsgCreateSlice"
	case MsgResp:
		return "MsgResp"
	case MsgErr:
		return "MsgErr"
	case MsgPageLSN:
		return "MsgPageLSN"
	case MsgLogTruncate:
		return "MsgLogTruncate"
	case MsgLogSubscribe:
		return "MsgLogSubscribe"
	case MsgLogUnsubscribe:
		return "MsgLogUnsubscribe"
	case MsgLogBatch:
		return "MsgLogBatch"
	case MsgFrontier:
		return "MsgFrontier"
	case MsgVersionPin:
		return "MsgVersionPin"
	case MsgPing:
		return "MsgPing"
	case MsgHealthReport:
		return "MsgHealthReport"
	}
	return "MsgUnknown"
}

// rpcInstruments is the per-MsgType instrument set, resolved once and
// cached so the per-call cost is a map read under RLock plus atomics.
type rpcInstruments struct {
	requests  *obs.Counter
	errors    *obs.Counter
	reqBytes  *obs.Counter
	respBytes *obs.Counter
	latency   *obs.Histogram
}

// RPCMetrics attributes transport traffic per message type: request
// count, request/response bytes, errors, and a latency histogram for
// each MsgType. side distinguishes the caller ("client") from the
// serving loop ("server") when both run in one process. A nil
// *RPCMetrics is valid and free.
type RPCMetrics struct {
	mu     sync.RWMutex
	reg    *obs.Registry
	side   string
	byType map[MsgType]*rpcInstruments
}

// NewRPCMetrics registers the per-type RPC metric families in reg.
// Returns nil (disabled) when reg is nil.
func NewRPCMetrics(reg *obs.Registry, side string) *RPCMetrics {
	if reg == nil {
		return nil
	}
	return &RPCMetrics{reg: reg, side: side, byType: make(map[MsgType]*rpcInstruments)}
}

func (m *RPCMetrics) instruments(t MsgType) *rpcInstruments {
	m.mu.RLock()
	ins := m.byType[t]
	m.mu.RUnlock()
	if ins != nil {
		return ins
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ins = m.byType[t]; ins != nil {
		return ins
	}
	labels := []obs.Label{obs.L("type", t.String()), obs.L("side", m.side)}
	ins = &rpcInstruments{
		requests:  m.reg.Counter("taurus_rpc_requests_total", "RPC requests by message type.", labels...),
		errors:    m.reg.Counter("taurus_rpc_errors_total", "RPC requests that returned an error, by message type.", labels...),
		reqBytes:  m.reg.Counter("taurus_rpc_request_bytes_total", "Request payload bytes (incl. framing) by message type.", labels...),
		respBytes: m.reg.Counter("taurus_rpc_response_bytes_total", "Response payload bytes (incl. framing) by message type.", labels...),
		latency:   m.reg.Histogram("taurus_rpc_latency_seconds", "RPC round-trip latency by message type.", nil, labels...),
	}
	m.byType[t] = ins
	return ins
}

// observe records one completed call. Safe on a nil receiver.
func (m *RPCMetrics) observe(t MsgType, reqLen, respLen int, d time.Duration, isErr bool) {
	if m == nil {
		return
	}
	ins := m.instruments(t)
	ins.requests.Inc()
	ins.reqBytes.Add(uint64(reqLen) + frameOverhead)
	ins.respBytes.Add(uint64(respLen) + frameOverhead)
	ins.latency.ObserveDuration(d)
	if isErr {
		ins.errors.Inc()
	}
}
