package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/obs"
)

// Handler is the server side of a storage service: it receives a decoded
// request and returns a response struct (one of Ack, PageResp,
// BatchReadResp) or an error.
type Handler interface {
	Handle(req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req any) (any, error)

// Handle calls f(req).
func (f HandlerFunc) Handle(req any) (any, error) { return f(req) }

// TracedHandler is optionally implemented by services that open
// server-side child spans. When a sampled frame arrives, transports
// prefer HandleTraced; plain Handle remains the untraced fast path.
type TracedHandler interface {
	Handler
	HandleTraced(tc obs.TraceContext, req any) (any, error)
}

// Transport routes requests to named nodes.
type Transport interface {
	// Call sends req to the node and returns its decoded response.
	Call(node string, req any) (any, error)
}

// TracedTransport is a Transport that can stamp a trace context onto
// the wire. InProc and TCPClient implement it.
type TracedTransport interface {
	Transport
	// CallTraced is Call with a propagated trace context attached to
	// the request frame.
	CallTraced(tc obs.TraceContext, node string, req any) (any, error)
}

// CallTraced sends req through t, attaching tc when the transport
// supports tracing and tc is sampled. Wrapper transports that only
// implement Call degrade to an untraced send.
func CallTraced(t Transport, tc obs.TraceContext, node string, req any) (any, error) {
	if tc.Valid() {
		if tt, ok := t.(TracedTransport); ok {
			return tt.CallTraced(tc, node, req)
		}
	}
	return t.Call(node, req)
}

// dispatch routes a decoded request to the handler, preferring the
// traced entry point when the frame carried a sampled context.
func dispatch(h Handler, tc obs.TraceContext, req any) (any, error) {
	if tc.Valid() {
		if th, ok := h.(TracedHandler); ok {
			return th.HandleTraced(tc, req)
		}
	}
	return h.Handle(req)
}

// spanContext returns the context children should inherit: the
// client-side rpc span when one was opened, else the caller's own.
func spanContext(sp *obs.SpanHandle, fallback obs.TraceContext) obs.TraceContext {
	if sp != nil {
		return sp.Context()
	}
	return fallback
}

// Counters accumulates traffic statistics. All fields are atomic; read
// with Snapshot.
type Counters struct {
	BytesSent     atomic.Uint64 // request bytes, SQL node → storage
	BytesReceived atomic.Uint64 // response bytes, storage → SQL node
	Requests      atomic.Uint64
	BatchReads    atomic.Uint64
	PageReads     atomic.Uint64
	LogWrites     atomic.Uint64
}

// CountersSnapshot is a point-in-time copy of the counters.
type CountersSnapshot struct {
	BytesSent     uint64
	BytesReceived uint64
	Requests      uint64
	BatchReads    uint64
	PageReads     uint64
	LogWrites     uint64
}

// Snapshot copies current values.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		BytesSent:     c.BytesSent.Load(),
		BytesReceived: c.BytesReceived.Load(),
		Requests:      c.Requests.Load(),
		BatchReads:    c.BatchReads.Load(),
		PageReads:     c.PageReads.Load(),
		LogWrites:     c.LogWrites.Load(),
	}
}

// Sub returns the delta s - o, for before/after measurements around a
// query.
func (s CountersSnapshot) Sub(o CountersSnapshot) CountersSnapshot {
	return CountersSnapshot{
		BytesSent:     s.BytesSent - o.BytesSent,
		BytesReceived: s.BytesReceived - o.BytesReceived,
		Requests:      s.Requests - o.Requests,
		BatchReads:    s.BatchReads - o.BatchReads,
		PageReads:     s.PageReads - o.PageReads,
		LogWrites:     s.LogWrites - o.LogWrites,
	}
}

func (c *Counters) account(t MsgType, reqLen, respLen int) {
	c.BytesSent.Add(uint64(reqLen) + frameOverhead)
	c.BytesReceived.Add(uint64(respLen) + frameOverhead)
	c.Requests.Add(1)
	switch t {
	case MsgBatchRead:
		c.BatchReads.Add(1)
	case MsgReadPage:
		c.PageReads.Add(1)
	case MsgWriteLogs, MsgLogAppend:
		c.LogWrites.Add(1)
	}
}

// frameOverhead approximates per-message framing (length prefix + type).
const frameOverhead = 5

// InProc is an in-process transport. Every call serializes the request
// and response through the wire codec, so byte accounting matches what a
// real network would carry, and handlers cannot accidentally share memory
// with callers.
type InProc struct {
	mu    sync.RWMutex
	nodes map[string]Handler
	// Stats is the traffic ledger for everything sent through this
	// transport.
	Stats Counters
	// Metrics, when non-nil, attributes every call per MsgType (count,
	// latency). Set before first use; nil is free.
	Metrics *RPCMetrics
	// Tracer, when non-nil, records a client-side rpc:<MsgType> span for
	// every sampled call. Set before first use; nil is free.
	Tracer *obs.Tracer
}

// NewInProc returns an empty in-process fabric.
func NewInProc() *InProc {
	return &InProc{nodes: make(map[string]Handler)}
}

// Register attaches a service implementation under a node name.
func (t *InProc) Register(node string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[node] = h
}

// Unregister detaches a node (a closed read replica); calls to it fail
// with unknown-node afterwards.
func (t *InProc) Unregister(node string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.nodes, node)
}

// Call implements Transport.
func (t *InProc) Call(node string, req any) (any, error) {
	return t.CallTraced(obs.TraceContext{}, node, req)
}

// CallTraced implements TracedTransport. The trace header is wrapped
// and unwrapped through the same wire form TCP carries, so the
// in-process fabric exercises identical bytes.
func (t *InProc) CallTraced(tc obs.TraceContext, node string, req any) (any, error) {
	t.mu.RLock()
	h, ok := t.nodes[node]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %q", node)
	}
	msgType, body, err := EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	var sp *obs.SpanHandle
	if tc.Valid() {
		sp = t.Tracer.StartSpan(tc, "rpc:"+msgType.String())
		defer sp.End()
	}
	wireType, wireBody := wrapTrace(msgType, body, spanContext(sp, tc))
	rawType, rawBody, wireTC, err := unwrapTrace(wireType, wireBody)
	if err != nil {
		return nil, err
	}
	decoded, err := DecodeRequest(rawType, rawBody)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if t.Metrics != nil {
		t0 = time.Now()
	}
	resp, handlerErr := dispatch(h, wireTC, decoded)
	respType, respBody, err := EncodeResponse(resp, handlerErr)
	if err != nil {
		return nil, err
	}
	t.Stats.account(msgType, len(wireBody), len(respBody))
	if t.Metrics != nil {
		t.Metrics.observe(msgType, time.Since(t0))
	}
	return DecodeResponse(respType, respBody)
}
