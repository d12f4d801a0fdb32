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
	requests *obs.Counter
	latency  *obs.Histogram
}

// RPCMetrics attributes transport traffic per message type: a request
// count and a latency histogram for each MsgType. side distinguishes
// the caller ("client") from the serving loop ("server") when both run
// in one process; a transport's bytes are in its Counters. A nil
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
		requests: m.reg.Counter("taurus_rpc_requests_total", "RPC requests by message type.", labels...),
		latency:  m.reg.Histogram("taurus_rpc_latency_seconds", "RPC round-trip latency by message type.", nil, labels...),
	}
	m.byType[t] = ins
	return ins
}

// observe records one completed call. Safe on a nil receiver.
func (m *RPCMetrics) observe(t MsgType, d time.Duration) {
	if m == nil {
		return
	}
	ins := m.instruments(t)
	ins.requests.Inc()
	ins.latency.ObserveDuration(d)
}
