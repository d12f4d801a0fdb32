package cluster

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"
)

// echoHandler returns canned responses per request type.
type echoHandler struct{}

func (echoHandler) Handle(req any) (any, error) {
	switch m := req.(type) {
	case *WriteLogsReq:
		return &Ack{LSN: uint64(len(m.Recs))}, nil
	case *ReadPageReq:
		return &PageResp{Page: []byte(fmt.Sprintf("page-%d@%d", m.PageID, m.LSN))}, nil
	case *BatchReadReq:
		resp := &BatchReadResp{Processed: uint32(len(m.PageIDs))}
		for _, id := range m.PageIDs {
			resp.Pages = append(resp.Pages, []byte(fmt.Sprintf("p%d", id)))
		}
		return resp, nil
	case *LogAppendReq:
		return &Ack{LSN: 42}, nil
	case *CreateSliceReq:
		return &Ack{}, nil
	default:
		return nil, fmt.Errorf("echo: bad request %T", req)
	}
}

func exerciseTransport(t *testing.T, tr Transport, node string) {
	t.Helper()
	// WriteLogs.
	resp, err := tr.Call(node, &WriteLogsReq{Tenant: 1, SliceID: 2, Recs: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*Ack).LSN != 6 {
		t.Errorf("WriteLogs ack = %d", resp.(*Ack).LSN)
	}
	// ReadPage.
	resp, err = tr.Call(node, &ReadPageReq{PageID: 7, LSN: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resp.(*PageResp).Page); got != "page-7@9" {
		t.Errorf("ReadPage = %q", got)
	}
	// BatchRead with descriptor bytes.
	resp, err = tr.Call(node, &BatchReadReq{
		PageIDs: []uint64{1, 2, 3}, Desc: []byte{9, 9}, Plugin: "innodb", LSN: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	br := resp.(*BatchReadResp)
	if len(br.Pages) != 3 || string(br.Pages[2]) != "p3" || br.Processed != 3 {
		t.Errorf("BatchRead = %+v", br)
	}
	// LogAppend.
	resp, err = tr.Call(node, &LogAppendReq{Recs: []byte("x")})
	if err != nil || resp.(*Ack).LSN != 42 {
		t.Errorf("LogAppend = %v, %v", resp, err)
	}
	// CreateSlice.
	if _, err := tr.Call(node, &CreateSliceReq{Tenant: 1, SliceID: 3}); err != nil {
		t.Errorf("CreateSlice: %v", err)
	}
}

func TestInProcTransport(t *testing.T) {
	tr := NewInProc()
	tr.Register("ps1", echoHandler{})
	exerciseTransport(t, tr, "ps1")
	if _, err := tr.Call("nope", &ReadPageReq{}); err == nil {
		t.Error("unknown node should fail")
	}
	snap := tr.Stats.Snapshot()
	if snap.Requests != 5 || snap.BytesSent == 0 || snap.BytesReceived == 0 {
		t.Errorf("stats = %+v", snap)
	}
	if snap.BatchReads != 1 || snap.PageReads != 1 || snap.LogWrites != 2 {
		t.Errorf("typed counters = %+v", snap)
	}
	delta := tr.Stats.Snapshot().Sub(snap)
	if delta.Requests != 0 {
		t.Error("Sub of identical snapshots should be zero")
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, echoHandler{})
	client := NewTCPClient()
	defer client.Close()
	exerciseTransport(t, client, l.Addr().String())
	snap := client.Stats.Snapshot()
	if snap.Requests != 5 {
		t.Errorf("requests = %d", snap.Requests)
	}
	if _, err := client.Call("127.0.0.1:1", &ReadPageReq{}); err == nil {
		t.Error("unreachable address should fail")
	}
}

// TestTCPCallTimeout: against a server that accepts and then goes
// silent (a black-holed peer), a client with CallTimeout must fail the
// call within the bound instead of blocking forever, and a later call
// must redial rather than reuse the dead connection.
func TestTCPCallTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the conn open, never answer
		}
	}()
	client := NewTCPClient()
	client.DialTimeout = time.Second
	client.CallTimeout = 50 * time.Millisecond
	defer client.Close()
	start := time.Now()
	if _, err := client.Call(l.Addr().String(), &ReadPageReq{PageID: 1}); err == nil {
		t.Fatal("call against a silent server should time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
	// The timed-out connection was dropped; the next call redials.
	if _, err := client.Call(l.Addr().String(), &ReadPageReq{PageID: 1}); err == nil {
		t.Fatal("second call should also time out, not hang")
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, HandlerFunc(func(req any) (any, error) {
		return nil, fmt.Errorf("storage exploded")
	}))
	client := NewTCPClient()
	defer client.Close()
	_, err = client.Call(l.Addr().String(), &ReadPageReq{PageID: 1})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("storage exploded")) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestRequestCodecRoundTrips(t *testing.T) {
	reqs := []any{
		&WriteLogsReq{Tenant: 3, SliceID: 9, Recs: []byte{1, 2, 3}},
		&ReadPageReq{Tenant: 1, SliceID: 2, PageID: 1 << 40, LSN: 77},
		&BatchReadReq{Tenant: 5, SliceID: 6, LSN: 12, PageIDs: []uint64{9, 8, 7}, Desc: []byte("desc"), Plugin: "innodb"},
		&LogAppendReq{Tenant: 2, Recs: []byte("recs")},
		&CreateSliceReq{Tenant: 4, SliceID: 44},
	}
	for _, req := range reqs {
		mt, body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(mt, body)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", req) {
			t.Errorf("round trip %T: %+v vs %+v", req, got, req)
		}
		// Truncations must error, not panic.
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeRequest(mt, body[:cut]); err == nil && cut < len(body) {
				// Some prefixes may decode when trailing fields are
				// empty slices; only flag clearly-bad successes.
				_ = err
			}
		}
	}
	if _, _, err := EncodeRequest(struct{}{}); err == nil {
		t.Error("unknown request type should fail")
	}
	if _, err := DecodeRequest(200, nil); err == nil {
		t.Error("unknown msg type should fail")
	}
}

func TestResponseCodecRoundTrips(t *testing.T) {
	resps := []any{
		&Ack{LSN: 99},
		&PageResp{Page: []byte("pagebytes")},
		&BatchReadResp{Pages: [][]byte{[]byte("a"), nil, []byte("ccc")}, Processed: 2, Skipped: 1},
	}
	for _, resp := range resps {
		mt, body, err := EncodeResponse(resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(mt, body)
		if err != nil {
			t.Fatalf("%T: %v", resp, err)
		}
		if fmt.Sprintf("%T", got) != fmt.Sprintf("%T", resp) {
			t.Errorf("type changed: %T vs %T", got, resp)
		}
	}
	// Error response.
	mt, body, _ := EncodeResponse(nil, fmt.Errorf("boom"))
	if _, err := DecodeResponse(mt, body); err == nil {
		t.Error("error response should decode to error")
	}
	if _, err := DecodeResponse(MsgResp, nil); err == nil {
		t.Error("empty body should fail")
	}
	if _, err := DecodeResponse(MsgResp, []byte{99}); err == nil {
		t.Error("unknown tag should fail")
	}
}

// TestWireNumbersArePinned: the wire numbers of every surviving message
// are what deployed peers speak, and the numbers of the retired pull
// tailer's messages (MsgLogRead 10, MsgLSNAdvance 11, MsgSliceLSN 12;
// response tags 6 and 7) stay reserved — refused on decode, never
// reassigned. Literal numbers on purpose: deleting or inserting a
// constant above shifts the iota and must fail here.
func TestWireNumbersArePinned(t *testing.T) {
	reqs := []struct {
		want MsgType
		req  any
	}{
		{1, &WriteLogsReq{}},
		{2, &ReadPageReq{}},
		{3, &BatchReadReq{}},
		{4, &LogAppendReq{}},
		{5, &CreateSliceReq{}},
		{8, &PageLSNReq{}},
		{9, &LogTruncateReq{}},
		{13, &LogSubscribeReq{}},
		{14, &LogUnsubscribeReq{}},
		{15, &LogBatchReq{}},
		{16, &FrontierReq{}},
		{17, &VersionPinReq{}},
		{18, &PingReq{}},
		{19, &HealthReportReq{}},
	}
	for _, c := range reqs {
		got, body, err := EncodeRequest(c.req)
		if err != nil || got != c.want {
			t.Errorf("%T encodes as type %d (err %v), want %d", c.req, got, err, c.want)
			continue
		}
		if back, err := DecodeRequest(c.want, body); err != nil || fmt.Sprintf("%T", back) != fmt.Sprintf("%T", c.req) {
			t.Errorf("type %d decodes to %T (err %v), want %T", c.want, back, err, c.req)
		}
	}
	if MsgResp != 6 || MsgErr != 7 {
		t.Errorf("MsgResp, MsgErr = %d, %d; want 6, 7", MsgResp, MsgErr)
	}
	for _, retired := range []MsgType{10, 11, 12} {
		if _, err := DecodeRequest(retired, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
			t.Errorf("retired request type %d decoded", retired)
		}
		if name := retired.String(); name != "MsgUnknown" {
			t.Errorf("retired request type %d is still named %s", retired, name)
		}
	}

	resps := []struct {
		want byte
		resp any
	}{
		{1, &Ack{}},
		{2, &PageResp{}},
		{3, &BatchReadResp{}},
		{4, &PageLSNResp{}},
		{5, &LogGCResp{}},
		{8, &LogSubscribeResp{}},
		{9, &PingResp{}},
		{10, &HealthReportResp{}},
	}
	for _, c := range resps {
		mt, body, err := EncodeResponse(c.resp, nil)
		if err != nil || mt != MsgResp || body[0] != c.want {
			t.Errorf("%T encodes as type %d, body % x (err %v); want a MsgResp tagged %d", c.resp, mt, body, err, c.want)
			continue
		}
		if back, err := DecodeResponse(MsgResp, body); err != nil || fmt.Sprintf("%T", back) != fmt.Sprintf("%T", c.resp) {
			t.Errorf("tag %d decodes to %T (err %v), want %T", c.want, back, err, c.resp)
		}
	}
	for _, retired := range []byte{6, 7} {
		if _, err := DecodeResponse(MsgResp, []byte{retired, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
			t.Errorf("retired response tag %d decoded", retired)
		}
	}
}
