package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/engine"
	"taurus/internal/logstore"
	"taurus/internal/page"
	"taurus/internal/pagestore"
	"taurus/internal/replica"
	"taurus/internal/sal"
	"taurus/internal/sql"
	"taurus/internal/tpch"
)

// The traced run wires its own fleet from the layers' public
// constructors, as taurus.Open does, so that it can decorate the two
// boundaries reachable from outside the product: the cluster.Transport
// the SAL (and a replica) call through, and the cluster.Handler each Log
// Store and Page Store serves. Spans inside the product are a later
// change. The traced fleet has no checkpointer and no health pinger.

// msgName is the span name of a cluster request.
func msgName(req any) string {
	switch req.(type) {
	case *cluster.BatchReadReq:
		return "batch_read"
	case *cluster.ReadPageReq:
		return "read_page"
	case *cluster.WriteLogsReq:
		return "write_logs"
	case *cluster.LogAppendReq:
		return "log_append"
	case *cluster.LogBatchReq:
		return "log_batch"
	default:
		return "other"
	}
}

// exchange is one captured request and its response, for the codec probe.
type exchange struct{ req, resp any }

// capture keeps a bounded sample of what crossed the transport, as input
// for the direct layer probes.
type capture struct {
	mu         sync.Mutex
	query      string            // query the client is running, names captured descriptors
	descs      map[string][]byte // first NDP descriptor seen per query
	exchanges  map[string][]exchange
	leafPages  [][]byte // regular leaf pages of leafIndex
	leafIndex  uint64
	logBatches [][]byte // MsgLogAppend payloads (wal-encoded record batches)
	logBytes   int64    // all MsgLogAppend payload bytes to the first Log Store
	firstLog   string
}

const (
	maxExchanges  = 64
	maxLeafPages  = 128
	maxLogBatches = 256
)

func (c *capture) setQuery(q string) {
	c.mu.Lock()
	c.query = q
	c.mu.Unlock()
}

func (c *capture) keepLeaf(buf []byte) {
	if len(c.leafPages) >= maxLeafPages || c.leafIndex == 0 {
		return
	}
	pg, err := page.FromBytes(buf)
	if err != nil || pg.IsNDP() || pg.Level() != 0 || pg.IndexID() != c.leafIndex {
		return
	}
	c.leafPages = append(c.leafPages, append([]byte(nil), buf...))
}

func (c *capture) observe(node string, req, resp any) {
	name := msgName(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.exchanges[name]) < maxExchanges && resp != nil {
		c.exchanges[name] = append(c.exchanges[name], exchange{req, resp})
	}
	switch r := req.(type) {
	case *cluster.BatchReadReq:
		if len(r.Desc) > 0 {
			if _, ok := c.descs[c.query]; !ok && c.query != "" {
				c.descs[c.query] = append([]byte(nil), r.Desc...)
			}
		} else if br, ok := resp.(*cluster.BatchReadResp); ok {
			for _, p := range br.Pages {
				c.keepLeaf(p)
			}
		}
	case *cluster.ReadPageReq:
		if pr, ok := resp.(*cluster.PageResp); ok {
			c.keepLeaf(pr.Page)
		}
	case *cluster.LogAppendReq:
		if node == c.firstLog {
			c.logBytes += int64(len(r.Recs))
			if len(c.logBatches) < maxLogBatches {
				c.logBatches = append(c.logBatches, append([]byte(nil), r.Recs...))
			}
		}
	}
}

// spanTransport records a client-side span around every cluster call.
type spanTransport struct {
	inner cluster.Transport
	rec   *recorder
	cap   *capture
}

func (t *spanTransport) Call(node string, req any) (any, error) {
	t0 := time.Now()
	resp, err := t.inner.Call(node, req)
	t.rec.add(msgName(req), levelCall, node, t0, time.Now())
	t.cap.observe(node, req, resp)
	return resp, err
}

// tracedFleet is the benchmark's own wiring of the product's layers.
type tracedFleet struct {
	rec           *recorder
	cap           *capture
	tr            *cluster.InProc
	client        *spanTransport
	logs          []*logstore.Store
	logNames      []string
	psNames       []string
	sal           *sal.SAL
	eng           *engine.Engine
	session       *sql.Session
	pagesPerSlice uint64

	rep        *replica.Replica
	repEng     *engine.Engine
	repSession *sql.Session
}

// spanHandler records a server-side span around every request a store
// handles.
func (f *tracedFleet) spanHandler(node string, h cluster.Handler) cluster.Handler {
	return cluster.HandlerFunc(func(req any) (any, error) {
		t0 := time.Now()
		resp, err := h.Handle(req)
		f.rec.add(msgName(req), levelHandler, node, t0, time.Now())
		return resp, err
	})
}

// openTracedFleet builds three Log Stores (durable under dataDir when it
// is set), four Page Stores, the SAL, the engine and a SQL session, with
// the product's default sizes unless cfg says otherwise.
func openTracedFleet(dataDir string, pagesPerSlice uint64, poolPages, lookAhead int) (*tracedFleet, error) {
	f := &tracedFleet{rec: newRecorder(), tr: cluster.NewInProc(), pagesPerSlice: pagesPerSlice,
		cap: &capture{descs: map[string][]byte{}, exchanges: map[string][]exchange{}, firstLog: "log1"}}
	f.client = &spanTransport{inner: f.tr, rec: f.rec, cap: f.cap}
	for _, n := range []string{"log1", "log2", "log3"} {
		ls := logstore.New(n)
		if dataDir != "" {
			var err error
			if ls, err = logstore.Open(n, filepath.Join(dataDir, n)); err != nil {
				f.close()
				return nil, err
			}
		}
		f.logs = append(f.logs, ls)
		f.logNames = append(f.logNames, n)
		f.tr.Register(n, f.spanHandler(n, ls))
		ls.SetPushTransport(f.tr)
	}
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("pagestore-%d", i)
		f.psNames = append(f.psNames, name)
		f.tr.Register(name, f.spanHandler(name, pagestore.New(name)))
	}
	s, err := sal.New(sal.Config{Tenant: 1, Transport: f.client, LogStores: f.logNames,
		PageStores: f.psNames, ReplicationFactor: 3, PagesPerSlice: pagesPerSlice,
		Plugin: pagestore.PluginInnoDB})
	if err != nil {
		f.close()
		return nil, err
	}
	f.sal = s
	if poolPages <= 0 {
		poolPages = 4096
	}
	f.eng, err = engine.New(engine.Config{SAL: s, PoolPages: poolPages, NDPMaxPagesLookAhead: lookAhead})
	if err != nil {
		f.close()
		return nil, err
	}
	f.session = sql.NewSession(f.eng)
	return f, nil
}

// openReplica attaches a push-mode read replica to the traced fleet,
// bootstrapped from the start of the log (the traced fleet writes no
// checkpoints).
func (f *tracedFleet) openReplica(poolPages, lookAhead int) error {
	const node = "replica-1"
	rep, err := replica.New(replica.Config{Transport: f.client, Tenant: 1,
		LogStores: f.logNames, PageStores: f.psNames, ReplicationFactor: 3,
		PagesPerSlice: f.pagesPerSlice, Plugin: pagestore.PluginInnoDB,
		Name: node, Node: node, Subscribe: true})
	if err != nil {
		return err
	}
	eng, err := engine.New(engine.Config{ReadView: rep, PoolPages: poolPages, NDPMaxPagesLookAhead: lookAhead})
	if err != nil {
		return err
	}
	session := sql.NewSession(eng)
	session.ReadOnly = true
	rep.Bind(eng, func(table string) { session.Cat.Analyze(table) })
	f.tr.Register(node, f.spanHandler(node, rep))
	f.sal.AddFrontierWatch()
	if err := rep.Start(0, f.sal.DurableLSN()); err != nil {
		f.sal.RemoveFrontierWatch()
		f.tr.Unregister(node)
		return err
	}
	f.rep, f.repEng, f.repSession = rep, eng, session
	return nil
}

// startWindow drops what set-up recorded, so spans and captured log
// bytes describe the traced window only.
func (f *tracedFleet) startWindow() {
	f.rec.finish()
	f.cap.mu.Lock()
	f.cap.logBytes = 0
	f.cap.mu.Unlock()
}

func (f *tracedFleet) frontend() frontend {
	return frontend{exec: f.session.Exec, eng: f.eng}
}

func (f *tracedFleet) replicaFrontend() frontend {
	return frontend{exec: f.repSession.Exec, eng: f.repEng}
}

func (f *tracedFleet) close() {
	if f.rep != nil {
		f.sal.RemoveFrontierWatch()
		f.rep.Close()
		f.tr.Unregister("replica-1")
	}
	if f.sal != nil {
		f.sal.Close()
	}
	for _, ls := range f.logs {
		ls.Close()
	}
}

// tracedWindow is what one traced client loop produced.
type tracedWindow struct {
	spans  []span
	wallNS int64
	ops    int             // ops the per-op metrics divide by
	isOp   func(span) bool // which op spans those are
}

// spanMetrics fills the T metrics that come from spans.
func spanMetrics(m map[string]float64, w tracedWindow) {
	byName := map[string]*series{}
	sample := func(key string, s span) {
		if byName[key] == nil {
			byName[key] = &series{}
		}
		*byName[key] = append(*byName[key], float64(s.dur())/1e6)
	}
	calls := map[int][]interval{}    // op index -> its call spans
	handlers := map[int][]interval{} // call index -> its handler spans
	var opUnion []interval
	var psBusy int64
	for _, s := range w.spans {
		switch s.Level {
		case levelOp:
			opUnion = append(opUnion, interval{s.Start, s.End})
		case levelCall:
			sample("call."+s.Name, s)
			if s.Op >= 0 {
				calls[s.Op] = append(calls[s.Op], interval{s.Start, s.End})
			}
		case levelHandler:
			role := "pagestore"
			if strings.HasPrefix(s.Node, "log") {
				role = "logstore"
			}
			sample(role+"."+s.Name, s)
			if role == "pagestore" {
				psBusy += s.dur()
			}
			if s.Parent >= 0 && w.spans[s.Parent].Level == levelCall {
				handlers[s.Parent] = append(handlers[s.Parent], interval{s.Start, s.End})
			}
		}
	}
	var frontendSelf, clusterSelf int64
	for i, s := range w.spans {
		switch {
		case s.Level == levelOp && w.isOp(s):
			frontendSelf += selfTime(s, calls[i])
		case s.Level == levelCall && s.Op >= 0 && w.isOp(w.spans[s.Op]):
			clusterSelf += selfTime(s, handlers[i])
		}
	}
	p50 := func(key string) float64 {
		if s := byName[key]; s != nil {
			return median(*s)
		}
		return 0
	}
	m["taurus.frontend_self_ms_per_op"] = per(float64(frontendSelf)/1e6, w.ops)
	m["cluster.self_ms_per_op"] = per(float64(clusterSelf)/1e6, w.ops)
	m["pagestore.busy_ms_per_op"] = per(float64(psBusy)/1e6, w.ops)
	if w.wallNS > 0 {
		m["taurus.span_coverage_frac"] = float64(unionLen(opUnion, 0, 1<<62)) / float64(w.wallNS)
	}
	m["cluster.call_ms_p50.batch_read"] = p50("call.batch_read")
	m["cluster.call_ms_p50.read_page"] = p50("call.read_page")
	m["cluster.call_ms_p50.write_logs"] = p50("call.write_logs")
	m["cluster.call_ms_p50.log_append"] = p50("call.log_append")
	m["pagestore.batch_read_handle_ms_p50"] = p50("pagestore.batch_read")
	m["pagestore.read_page_handle_ms_p50"] = p50("pagestore.read_page")
	m["pagestore.write_logs_handle_ms_p50"] = p50("pagestore.write_logs")
	m["logstore.append_handle_ms_p50"] = p50("logstore.log_append")
}

// finishTraced ends a traced window: parents, span metrics, probes and
// the span dump.
func finishTraced(o options, f *tracedFleet, w tracedWindow, stmts []string, commits int, res *result) error {
	w.spans = f.rec.finish()
	spanMetrics(res.metrics, w)
	runProbes(o, f, stmts, commits, res)
	name := fmt.Sprintf("spans-%s-seed%d.jsonl.gz", o.workload, o.seed)
	path, err := writeSpans(o.outDir, name, w.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.info = append(res.info, fmt.Sprintf("traced: %d spans written to %s", len(w.spans), path))
	if cov := res.metrics["taurus.span_coverage_frac"]; cov < 0.9 {
		res.info = append(res.info, fmt.Sprintf("FLAG: span coverage %.3f below 0.9", cov))
	}
	return nil
}

// loadTracedTPCH loads TPC-H and the side table into the traced fleet and
// runs one pass with NDP off and one with NDP on, so the capture holds
// raw lineitem leaf pages and every query's descriptor whatever the
// workload's own mode is. Both passes are checked against the product
// fleet's golden hashes.
func loadTracedTPCH(o options, f *tracedFleet, golden []string, res *result) (*tpch.DB, []tpch.Query, error) {
	tdb, err := tpch.Load(f.eng, o.sz.sf)
	if err != nil {
		return nil, nil, err
	}
	if err := preloadKV(f.frontend(), o.sz.sideRows); err != nil {
		return nil, nil, err
	}
	queries, err := loadPassQueries()
	if err != nil {
		return nil, nil, err
	}
	f.cap.mu.Lock()
	f.cap.leafIndex = tdb.Lineitem.Primary.ID
	f.cap.mu.Unlock()
	for _, ndp := range []bool{false, true} {
		f.eng.Pool().Clear()
		p := &passRunner{fe: f.frontend(), tdb: tdb, ndp: ndp, queries: queries, golden: golden, res: res, cap: f.cap}
		p.run()
	}
	return tdb, queries, nil
}

// tracedScan runs the scan pass on the traced fleet with one client.
func tracedScan(o options, ndp bool, golden []string, untracedP50 float64, res *result) error {
	cfg := scanConfig(o.sz)
	f, err := openTracedFleet("", cfg.PagesPerSlice, cfg.PoolPages, cfg.NDPMaxPagesLookAhead)
	if err != nil {
		return err
	}
	defer f.close()
	tdb, queries, err := loadTracedTPCH(o, f, golden, res)
	if err != nil {
		return err
	}
	p := &passRunner{fe: f.frontend(), tdb: tdb, ndp: ndp, queries: queries, golden: golden, res: res, cap: f.cap}
	p.run() // warm: the capture passes cleared the pool
	f.startWindow()
	p.rec = f.rec
	start := time.Now()
	var passMS series
	passes := 0
	for deadline := start.Add(o.window / 2); time.Now().Before(deadline); passes++ {
		passMS.add(p.run())
	}
	w := tracedWindow{wallNS: time.Since(start).Nanoseconds(), ops: passes,
		isOp: func(s span) bool { return s.Name == "pass" }}
	if untracedP50 > 0 {
		res.metrics["taurus.trace_overhead_frac"] = steady(0.5, passMS)/untracedP50 - 1
	}
	res.timing("traced scan pass", passMS)
	return finishTraced(o, f, w, kvStatements, 0, res)
}

// tracedOLTP runs the oltp_mixed statement mix on the traced fleet with
// one client, so time containment gives each call its statement.
func tracedOLTP(o options, res *result) error {
	f, err := openTracedFleet(o.tmpDir+"/traced", 0, 0, 0)
	if err != nil {
		return err
	}
	defer f.close()
	fe := f.frontend()
	if err := preloadKV(fe, o.sz.kvRows); err != nil {
		return err
	}
	c := newOLTPClient(0, o.seed, fe, o.sz.kvRows)
	for warmEnd := time.Now().Add(o.sz.warm / 2); time.Now().Before(warmEnd); {
		c.step()
	}
	c.commits, c.reads = nil, nil
	f.startWindow()
	c.rec = f.rec
	start := time.Now()
	for deadline := start.Add(o.window / 2); time.Now().Before(deadline); {
		c.step()
	}
	w := tracedWindow{wallNS: time.Since(start).Nanoseconds(), ops: len(c.commits) + len(c.reads),
		isOp: func(s span) bool { return true }}
	res.attempted += w.ops
	for _, msg := range c.failed {
		res.fail("traced client: %s", msg)
	}
	res.timing("traced commit", c.commits)
	res.timing("traced point read", c.reads)
	// btree.pages_per_point_read: buffer pool lookups per serial read.
	const probeReads = 20
	before := poolLookups(f.eng)
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < probeReads; i++ {
		id := rng.Int63n(int64(o.sz.kvRows))
		res.check(readKV(fe, id, vFor(id)) == nil, "probe read %d", id)
	}
	res.metrics["btree.pages_per_point_read"] = float64(poolLookups(f.eng)-before) / probeReads
	return finishTraced(o, f, w, kvStatements, len(c.commits), res)
}

// poolLookups is the buffer pool's hits plus misses so far.
func poolLookups(eng *engine.Engine) uint64 {
	var n uint64
	for _, sh := range eng.Pool().ShardStatsSnapshot() {
		n += sh.Hits + sh.Misses
	}
	return n
}

// tracedHTAP alternates, with one client, a commit on the master, the
// wait until the replica sees it, and one NDP pass on the replica.
func tracedHTAP(o options, golden []string, res *result) error {
	cfg := scanConfig(o.sz)
	f, err := openTracedFleet(o.tmpDir+"/traced", cfg.PagesPerSlice, cfg.PoolPages, cfg.NDPMaxPagesLookAhead)
	if err != nil {
		return err
	}
	defer f.close()
	// golden was taken on the product fleet before its writer ran; the
	// traced fleet is checked against it before its own writer runs.
	_, queries, err := loadTracedTPCH(o, f, golden, res)
	if err != nil {
		return err
	}
	if err := f.openReplica(cfg.PoolPages, cfg.NDPMaxPagesLookAhead); err != nil {
		return err
	}
	if err := waitCaughtUp(func() uint64 { return f.rep.Stats().LagRecords }, f.repEng); err != nil {
		return err
	}
	rdb, err := tpch.Attach(f.repEng, o.sz.sf)
	if err != nil {
		return err
	}
	p := &passRunner{fe: f.replicaFrontend(), tdb: rdb, ndp: true, queries: queries, golden: golden, res: res, cap: f.cap}
	p.run() // warm, and still equal to the golden hashes: nothing written yet
	p.golden = nil
	f.startWindow()
	p.rec = f.rec
	rng := rand.New(rand.NewSource(o.seed))
	parts := tpch.NewGen(o.sz.sf).NPart
	var commits, waits, passMS series
	start := time.Now()
	n := 0
	for deadline := start.Add(o.window / 2); time.Now().Before(deadline); n++ {
		q := lineitemInsert(rng, n, parts)
		t0 := time.Now()
		_, err := f.session.Exec(q)
		t1 := time.Now()
		f.rec.add("stmt:insert", levelOp, "", t0, t1)
		commits.add(t1.Sub(t0))
		res.check(err == nil, "traced lineitem insert: %v", err)
		lsn := f.sal.DurableLSN()
		for f.rep.VisibleLSN() < lsn && time.Since(t1) < 5*time.Second {
			time.Sleep(250 * time.Microsecond)
		}
		t2 := time.Now()
		f.rec.add("visible_wait", levelOp, "", t1, t2)
		waits.add(t2.Sub(t1))
		res.check(f.rep.VisibleLSN() >= lsn, "traced replica did not see LSN %d", lsn)
		passMS.add(p.run())
	}
	w := tracedWindow{wallNS: time.Since(start).Nanoseconds(), ops: n,
		isOp: func(s span) bool { return s.Name == "pass" }}
	res.timing("traced commit", commits)
	res.timing("traced visible wait", waits)
	res.timing("traced replica pass", passMS)
	stmts := []string{lineitemInsert(rand.New(rand.NewSource(1)), 0, parts)}
	return finishTraced(o, f, w, stmts, n, res)
}
