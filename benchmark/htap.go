package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"taurus"
	"taurus/internal/engine"
	"taurus/internal/tpch"
	"taurus/internal/types"
)

// firstNewOrder is the first orderkey the writer uses, above anything
// tpch.Load generates at the scale factors the benchmark runs.
const firstNewOrder = 1_000_000

var (
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	epoch1992     = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
)

// lineitemInsert builds the n-th seeded lineitem row as one INSERT. Every
// row ships before Q1's cut-off date, so each one a replica pass can see
// raises Q1's row count: the monotonicity check rests on that.
func lineitemInsert(rng *rand.Rand, n int, parts int) string {
	day := func(d int) string { return epoch1992.AddDate(0, 0, d).Format("2006-01-02") }
	ship := rng.Intn(2300) // 1992-01-01 .. 1998-04
	qty := 1 + rng.Intn(50)
	price := (900 + rng.Intn(200)) * qty
	flag, status := "N", "O"
	if ship < 1263 { // before 1995-06-17
		flag, status = "R", "F"
	}
	return fmt.Sprintf("INSERT INTO lineitem VALUES (%d, 1, %d, %d, %d.00, %d.00, 0.%02d, 0.%02d, '%s', '%s', DATE '%s', DATE '%s', DATE '%s', '%s', '%s', 'seeded row %d')",
		firstNewOrder+n, 1+rng.Intn(parts), 1+rng.Intn(10), qty, price, rng.Intn(11), rng.Intn(9),
		flag, status, day(ship), day(ship+10), day(ship+20),
		shipInstructs[rng.Intn(len(shipInstructs))], shipModes[rng.Intn(len(shipModes))], n)
}

// ack is one acknowledged commit waiting to become visible on the replica.
type ack struct {
	lsn uint64
	at  time.Time
}

// htapWriter is client A: it commits one lineitem row per tick on the
// master and, while idle, polls the replica's visible LSN, retiring
// acknowledged commits as they become visible.
type htapWriter struct {
	master, rep *taurus.DB
	exec        func(string) error
	rng         *rand.Rand
	parts       int
	tick        time.Duration
	rec         *recorder

	n         int
	acked     atomic.Int64 // commits acknowledged, read by the scanner's rate meter
	lateTicks int
	commits   series
	delays    series
	lags      []float64
	pending   []ack
	failures  []string
	lastVis   uint64
}

// poll reads the replica once: checks its invariants, samples its lag
// and retires the commits that became visible.
func (w *htapWriter) poll() {
	st := w.rep.ReplicaStats()
	durable := w.master.DurableLSN() // read after the replica: durable only grows
	if st.VisibleLSN > durable {
		w.failures = append(w.failures, fmt.Sprintf("replica visible LSN %d beyond master durable %d", st.VisibleLSN, durable))
	}
	if st.VisibleLSN < w.lastVis {
		w.failures = append(w.failures, fmt.Sprintf("replica visible LSN went back: %d after %d", st.VisibleLSN, w.lastVis))
	}
	w.lastVis = st.VisibleLSN
	w.lags = append(w.lags, float64(st.LagRecords))
	now := time.Now()
	for len(w.pending) > 0 && w.pending[0].lsn <= st.VisibleLSN {
		w.delays.add(now.Sub(w.pending[0].at))
		w.pending = w.pending[1:]
	}
}

// commit inserts the next row and queues its acknowledgement.
func (w *htapWriter) commit() {
	q := lineitemInsert(w.rng, w.n, w.parts)
	w.n++
	t0 := time.Now()
	err := w.exec(q)
	at := time.Now()
	w.commits.add(at.Sub(t0))
	if w.rec != nil {
		w.rec.add("stmt:insert", levelOp, "", t0, at)
	}
	if err != nil {
		w.failures = append(w.failures, fmt.Sprintf("lineitem insert %d: %v", w.n, err))
		return
	}
	w.acked.Add(1)
	w.pending = append(w.pending, ack{lsn: w.master.DurableLSN(), at: at})
}

// run paces commits at one per tick until the deadline. A tick that fires
// while a commit is in flight is skipped and counted: the loop is closed.
func (w *htapWriter) run(deadline time.Time) {
	next := time.Now()
	for {
		for time.Now().Before(next) {
			w.poll()
			time.Sleep(250 * time.Microsecond)
		}
		if !time.Now().Before(deadline) {
			return
		}
		w.commit()
		next = next.Add(w.tick)
		for now := time.Now(); next.Before(now); next = next.Add(w.tick) {
			w.lateTicks++
		}
	}
}

// drain polls until every acknowledged commit is visible on the replica.
func (w *htapWriter) drain(timeout time.Duration) {
	for deadline := time.Now().Add(timeout); len(w.pending) > 0 && time.Now().Before(deadline); {
		w.poll()
		time.Sleep(250 * time.Microsecond)
	}
	if len(w.pending) > 0 {
		w.failures = append(w.failures, fmt.Sprintf("%d acknowledged commits never became visible on the replica", len(w.pending)))
	}
}

// q1Count sums Q1's count_order column: the lineitem rows a pass saw.
func q1Count(rows []types.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r[len(r)-1].I
	}
	return n
}

// replicaTables is what a replica must have attached before tpch.Attach:
// the eight TPC-H tables and the side table.
const replicaTables = 9

// waitCaughtUp waits until a replica has no lag left and its engine sees
// every table the master created.
func waitCaughtUp(lag func() uint64, eng *engine.Engine) error {
	deadline := time.Now().Add(20 * time.Second)
	for lag() != 0 || len(eng.Tables()) < replicaTables {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never caught up: lag=%d tables=%d", lag(), len(eng.Tables()))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func runHTAP(o options, res *result) error {
	dataDir := o.tmpDir + "/data"
	cfg := scanConfig(o.sz)
	cfg.DataDir = dataDir
	master, err := taurus.Open(cfg)
	if err != nil {
		return err
	}
	defer master.Close()
	mfe := productFrontend(master)
	load0 := time.Now()
	mdb, err := tpch.Load(master.Engine(), o.sz.sf)
	if err != nil {
		return err
	}
	loadS := time.Since(load0).Seconds()
	if err := preloadKV(mfe, o.sz.sideRows); err != nil {
		return err
	}
	if _, err := master.Checkpoint(); err != nil {
		return err
	}
	rep, err := taurus.OpenReplica(taurus.Config{Master: master, PoolPages: o.sz.poolPages, NDPMaxPagesLookAhead: 64})
	if err != nil {
		return err
	}
	defer rep.Close()
	if err := waitCaughtUp(func() uint64 { return rep.ReplicaStats().LagRecords }, rep.Engine()); err != nil {
		return err
	}
	rdb, err := tpch.Attach(rep.Engine(), o.sz.sf)
	if err != nil {
		return err
	}
	rfe := productFrontend(rep)
	queries, err := loadPassQueries()
	if err != nil {
		return err
	}
	golden := goldenHashes(mfe, mdb, queries, res)
	res.metrics["setup_s"] = time.Since(processStart).Seconds()
	res.metrics["tpch.load_rows_per_s"] = loadedRows(mdb) / loadS

	// Warm-up: nothing has been written since the load, so the replica's
	// passes must still match the master's golden hashes.
	warmUp(&passRunner{fe: rfe, tdb: rdb, ndp: true, queries: queries, golden: golden, res: res}, o.sz.warm)

	window := o.window
	if o.trace {
		window /= 2
	}
	w := &htapWriter{master: master, rep: rep, rng: rand.New(rand.NewSource(o.seed)),
		exec:  func(q string) error { _, err := master.Exec(q); return err },
		parts: tpch.NewGen(o.sz.sf).NPart, tick: o.sz.tick}
	p := &passRunner{fe: rfe, tdb: rdb, ndp: true, queries: queries, res: res}
	smp := startSampler(master)
	before := takeSnap(master, rep, dataDir)
	start := time.Now()
	meter := newRateMeter(start, window)
	deadline := start.Add(window)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w.run(deadline)
	}()
	var passMS series
	var lastCount int64
	for time.Now().Before(deadline) {
		passMS.add(p.run())
		meter.observe(time.Now(), p.passes*len(queries)+int(w.acked.Load()), p.passes)
		if rows := p.lastRows[0]; rows != nil {
			n := q1Count(rows)
			res.check(n >= lastCount, "replica went back: Q1 saw %d rows after %d", n, lastCount)
			lastCount = n
		}
	}
	<-writerDone
	meter.finish(time.Now(), p.passes*len(queries)+int(w.acked.Load()), p.passes)
	elapsed := time.Since(start).Seconds()
	after := takeSnap(master, rep, dataDir)
	smp.finish(res.metrics)

	// Quiesce: every acknowledged commit becomes visible, then the
	// replica's pass must equal the master's, query by query.
	w.drain(10 * time.Second)
	res.attempted += len(w.commits)
	for _, f := range w.failures {
		res.fail("writer: %s", f)
	}
	mp := &passRunner{fe: mfe, tdb: mdb, ndp: true, queries: queries, res: res}
	rp := &passRunner{fe: rfe, tdb: rdb, ndp: true, queries: queries, res: res}
	mp.run()
	rp.run()
	for i, q := range queries {
		res.check(mp.lastHashes[i] == rp.lastHashes[i] && rp.lastHashes[i] != "",
			"%s after quiescing: replica %s, master %s", q.Name, rp.lastHashes[i], mp.lastHashes[i])
	}

	// Complement phase: serial point reads on the replica.
	settle()
	var reads series
	for i := 0; i < o.sz.repReads; i++ {
		id := int64(i*7919) % int64(o.sz.sideRows)
		t0 := time.Now()
		err := readKV(rfe, id, vFor(id))
		reads.add(time.Since(t0))
		res.check(err == nil, "replica read: %v", err)
	}

	m := res.metrics
	net := after.net.Sub(before.net)
	m["scan_pass_p50_ms"] = steady(0.5, passMS)
	m["scan_pass_p90_ms"] = steady(0.9, passMS)
	m["scan_net_mb_per_pass"] = per(float64(net.BytesReceived)/1e6, p.passes)
	statementLatencies(m, []series{w.commits}, []series{reads})
	m["stmt_per_s"] = median(meter.rates)
	m["cpu_ms_per_op"] = median(meter.cpuPerOp)
	res.timing("replica scan pass", passMS)
	res.timing("master commit", w.commits)
	res.timing("visible delay", w.delays)
	res.timing("replica read (complement)", reads)
	res.info = append(res.info, fmt.Sprintf("passes=%d commits=%d late_ticks=%d window=%.2fs", p.passes, len(w.commits), w.lateTicks, elapsed))

	if o.trace {
		c := opCounts{passes: p.passes, commits: len(w.commits), seconds: elapsed}
		layerMetricsS(m, before, after, c, 0)
		scanLayerCounts(m, p)
		m["taurus.commit_p99_ms"] = quantile(w.commits, 0.99)
		m["taurus.commit_max_ms"] = quantile(w.commits, 1)
		m["taurus.writer_late_ticks"] = float64(w.lateTicks)
		m["taurus.visible_delay_p50_ms"] = median(w.delays)
		m["taurus.visible_delay_p90_ms"] = quantile(w.delays, 0.9)
		m["replica.lag_records_p50"] = median(w.lags)
		if cp := m["commit_p50_ms"]; cp > 0 {
			m["sal.stage_sum_over_commit_p50"] = (m["sal.stage_wait_ms_p50"] + m["sal.stage_seal_ms_p50"] + m["sal.stage_append_ms_p50"]) / cp
		}
		if err := tracedHTAP(o, golden, res); err != nil {
			return err
		}
	}
	m["peak_rss_mb"] = peakRSSMB()
	return nil
}
