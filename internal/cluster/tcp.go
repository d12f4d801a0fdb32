package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"taurus/internal/obs"
)

// TCP transport: length-prefixed frames over net.Conn. Frame layout:
//
//	[4-byte little-endian body length][1-byte MsgType][body]
//
// The same codec as InProc, so servers can be moved between in-process
// and TCP deployment without behavioural change. cmd/taurus-server runs a
// Page Store behind this transport.

// maxFrame bounds a single message; batch reads of a thousand 16 KB pages
// fit comfortably.
const maxFrame = 64 << 20

func writeFrame(w io.Writer, t MsgType, body []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func readFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[4]), body, nil
}

// Serve runs a service on the listener until the listener is closed.
// Each connection is handled by its own goroutine; requests on one
// connection are processed serially.
func Serve(l net.Listener, h Handler) error {
	return ServeMetrics(l, h, nil)
}

// ServeMetrics is Serve with optional per-MsgType attribution of every
// request handled (count, bytes, handler latency). m may be nil.
func ServeMetrics(l net.Listener, h Handler, m *RPCMetrics) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, h, m)
	}
}

func serveConn(conn net.Conn, h Handler, m *RPCMetrics) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	for {
		t, body, err := readFrame(br)
		if err != nil {
			return // connection closed or broken
		}
		t, body, tc, err := unwrapTrace(t, body)
		var req any
		if err == nil {
			req, err = DecodeRequest(t, body)
		}
		var resp any
		var handlerErr error
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		if err != nil {
			handlerErr = err
		} else {
			resp, handlerErr = dispatch(h, tc, req)
		}
		respType, respBody, err := EncodeResponse(resp, handlerErr)
		if err != nil {
			respType, respBody = MsgErr, []byte(err.Error())
		}
		if m != nil {
			m.observe(t, time.Since(t0))
		}
		if err := writeFrame(bw, respType, respBody); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// TCPClient is a Transport whose node names are "host:port" addresses.
// One pooled connection per address; calls on the same connection are
// serialized.
type TCPClient struct {
	mu    sync.Mutex
	conns map[string]*tcpConn
	// dialing marks addresses with a dial in flight; waiters block on
	// the channel instead of on mu, so a slow dial to one address never
	// stalls calls to others.
	dialing map[string]chan struct{}
	// Stats ledgers traffic exactly as InProc does.
	Stats Counters
	// Metrics, when non-nil, attributes every call per MsgType. Set
	// before first use; nil is free.
	Metrics *RPCMetrics
	// Tracer, when non-nil, records a client-side rpc:<MsgType> span for
	// every sampled call. Set before first use; nil is free.
	Tracer *obs.Tracer
	// DialTimeout bounds connection establishment; zero dials without a
	// bound. Set before first use.
	DialTimeout time.Duration
	// CallTimeout bounds each request/response round trip via connection
	// deadlines; a call that exceeds it fails and drops the pooled
	// connection. Zero leaves calls unbounded. Health pingers must set
	// this: a peer that black-holes traffic (partition, SIGSTOP) would
	// otherwise block a Call forever instead of failing. Set before
	// first use.
	CallTimeout time.Duration
}

type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewTCPClient returns an empty client pool.
func NewTCPClient() *TCPClient {
	return &TCPClient{
		conns:   make(map[string]*tcpConn),
		dialing: make(map[string]chan struct{}),
	}
}

// Close shuts all pooled connections.
func (c *TCPClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tc := range c.conns {
		tc.conn.Close()
	}
	c.conns = make(map[string]*tcpConn)
}

// get returns the pooled connection for addr, dialing one if needed.
// The dial happens outside the pool lock: concurrent callers to the
// same address wait for the one in-flight dial, while callers to other
// addresses proceed untouched — a black-holed peer must not be able to
// stall the whole pool for up to DialTimeout per attempt.
func (c *TCPClient) get(addr string) (*tcpConn, error) {
	for {
		c.mu.Lock()
		if tc, ok := c.conns[addr]; ok {
			c.mu.Unlock()
			return tc, nil
		}
		pending, ok := c.dialing[addr]
		if ok {
			c.mu.Unlock()
			<-pending // another caller is dialing; re-check when it settles
			continue
		}
		pending = make(chan struct{})
		c.dialing[addr] = pending
		c.mu.Unlock()

		conn, err := net.DialTimeout("tcp", addr, c.DialTimeout)
		c.mu.Lock()
		delete(c.dialing, addr)
		close(pending)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		tc := &tcpConn{
			conn: conn,
			br:   bufio.NewReaderSize(conn, 1<<16),
			bw:   bufio.NewWriterSize(conn, 1<<16),
		}
		c.conns[addr] = tc
		c.mu.Unlock()
		return tc, nil
	}
}

// Call implements Transport over TCP.
func (c *TCPClient) Call(addr string, req any) (any, error) {
	return c.CallTraced(obs.TraceContext{}, addr, req)
}

// CallTraced implements TracedTransport: a sampled context rides the
// request frame as the optional trace header.
func (c *TCPClient) CallTraced(trace obs.TraceContext, addr string, req any) (any, error) {
	msgType, body, err := EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	var sp *obs.SpanHandle
	if trace.Valid() {
		sp = c.Tracer.StartSpan(trace, "rpc:"+msgType.String())
		defer sp.End()
	}
	wireType, wireBody := wrapTrace(msgType, body, spanContext(sp, trace))
	tc, err := c.get(addr)
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var t0 time.Time
	if c.Metrics != nil {
		t0 = time.Now()
	}
	if c.CallTimeout > 0 {
		tc.conn.SetDeadline(time.Now().Add(c.CallTimeout))
	}
	if err := writeFrame(tc.bw, wireType, wireBody); err != nil {
		c.drop(addr, tc)
		return nil, err
	}
	if err := tc.bw.Flush(); err != nil {
		c.drop(addr, tc)
		return nil, err
	}
	respType, respBody, err := readFrame(tc.br)
	if err != nil {
		c.drop(addr, tc)
		return nil, err
	}
	if c.CallTimeout > 0 {
		tc.conn.SetDeadline(time.Time{})
	}
	c.Stats.account(msgType, len(wireBody), len(respBody))
	c.Metrics.observe(msgType, time.Since(t0))
	return DecodeResponse(respType, respBody)
}

// drop retires tc after a failed call. The identity check matters: a
// second caller that failed on the same (already replaced) connection
// must not tear down the fresh one a third caller just dialed.
func (c *TCPClient) drop(addr string, tc *tcpConn) {
	tc.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns[addr] == tc {
		delete(c.conns, addr)
	}
}
