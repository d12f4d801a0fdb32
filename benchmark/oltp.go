package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"taurus"
)

// oltpClients is the number of closed-loop clients of oltp_mixed: one
// per core of the 2-core machine the benchmark is calibrated on.
const oltpClients = 2

// kvRowBytes is the user payload of one kv row: id, v and the 64-byte pad.
const kvRowBytes = 8 + 4 + 64

// oltpClient is one closed-loop client: half single-row autocommit
// INSERTs of fresh keys (disjoint per client), half point SELECTs by
// primary key, uniform over the preloaded range.
type oltpClient struct {
	id      int
	rng     *rand.Rand
	fe      frontend
	kvRows  int
	rec     *recorder     // nil when untraced
	mix     []bool        // rest of the current block: true is an INSERT
	next    int64         // next fresh key offset
	done    *atomic.Int64 // statements completed by all clients
	acked   map[int64]int64
	commits series
	reads   series
	failed  []string
}

func newOLTPClient(id int, seed int64, fe frontend, kvRows int) *oltpClient {
	return &oltpClient{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		fe: fe, kvRows: kvRows, acked: map[int64]int64{}}
}

// mixBlock is the length of the blocks the statement mix is drawn in.
const mixBlock = 10

// nextIsInsert draws the statement kind. Kinds come in seeded shuffles of
// blocks holding exactly half INSERTs, so every run's mix is 50 % whatever
// its seed and length; with independent draws the share, and with it the
// mean statement cost, would differ by a few percent between seeds.
func (c *oltpClient) nextIsInsert() bool {
	if len(c.mix) == 0 {
		c.mix = make([]bool, mixBlock)
		for i := 0; i < mixBlock/2; i++ {
			c.mix[i] = true
		}
		c.rng.Shuffle(mixBlock, func(i, j int) { c.mix[i], c.mix[j] = c.mix[j], c.mix[i] })
	}
	insert := c.mix[0]
	c.mix = c.mix[1:]
	return insert
}

// step issues one statement drawn from the seeded generator.
func (c *oltpClient) step() {
	if c.done != nil {
		defer c.done.Add(1)
	}
	insert := c.nextIsInsert()
	t0 := time.Now()
	if insert {
		id := int64(c.kvRows) + int64(c.id)*100_000_000 + c.next
		c.next++
		v := int64(c.rng.Intn(1000))
		err := insertKV(c.fe, id, v)
		end := time.Now()
		c.commits.add(end.Sub(t0))
		if c.rec != nil {
			c.rec.add("stmt:insert", levelOp, "", t0, end)
		}
		if err != nil {
			c.failed = append(c.failed, fmt.Sprintf("insert %d: %v", id, err))
			return
		}
		c.acked[id] = v
		return
	}
	id := c.rng.Int63n(int64(c.kvRows))
	err := readKV(c.fe, id, vFor(id))
	end := time.Now()
	c.reads.add(end.Sub(t0))
	if c.rec != nil {
		c.rec.add("stmt:select", levelOp, "", t0, end)
	}
	if err != nil {
		c.failed = append(c.failed, err.Error())
	}
}

// runClients drives the clients concurrently for d, while the calling
// goroutine feeds the rate meter (nil during warm-up) from their shared
// statement counter.
func runClients(clients []*oltpClient, d time.Duration, done *atomic.Int64, meter *rateMeter) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *oltpClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step()
			}
		}(c)
	}
	if meter != nil {
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			n := int(done.Load())
			meter.observe(now, n, n)
			time.Sleep(5 * time.Millisecond)
		}
	}
	wg.Wait()
	if meter != nil {
		n := int(done.Load())
		meter.finish(time.Now(), n, n)
	}
}

func runOLTP(o options, res *result) error {
	dataDir := o.tmpDir + "/data"
	cfg := taurus.Config{DataDir: dataDir, CheckpointInterval: 5 * time.Second}
	db, err := taurus.Open(cfg)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	fe := productFrontend(db)
	if err := preloadKV(fe, o.sz.kvRows); err != nil {
		return err
	}
	res.metrics["setup_s"] = time.Since(processStart).Seconds()

	clients := make([]*oltpClient, oltpClients)
	var done atomic.Int64
	for i := range clients {
		clients[i] = newOLTPClient(i, o.seed, fe, o.sz.kvRows)
	}
	runClients(clients, o.sz.warm, nil, nil)
	for _, c := range clients {
		c.commits, c.reads = nil, nil
		c.done = &done
	}

	window := o.window
	if o.trace {
		window /= 2
	}
	smp := startSampler(db)
	before := takeSnap(db, db, dataDir)
	start := time.Now()
	meter := newRateMeter(start, window)
	runClients(clients, window, &done, meter)
	elapsed := time.Since(start).Seconds()
	after := takeSnap(db, db, dataDir)
	smp.finish(res.metrics)

	var commits, reads series
	var commitsBy, readsBy []series
	acked := map[int64]int64{}
	for _, c := range clients {
		commitsBy, readsBy = append(commitsBy, c.commits), append(readsBy, c.reads)
		commits = append(commits, c.commits...)
		reads = append(reads, c.reads...)
		for k, v := range c.acked {
			acked[k] = v
		}
		res.attempted += len(c.commits) + len(c.reads)
		for _, f := range c.failed {
			res.fail("client %d: %s", c.id, f)
		}
	}
	stmts := len(commits) + len(reads)

	m := res.metrics
	if o.trace {
		t0 := time.Now()
		ck, err := db.Checkpoint()
		if err != nil {
			return fmt.Errorf("explicit checkpoint: %w", err)
		}
		m["pstore.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		m["pstore.checkpoint_mb"] = float64(ck.BytesWritten) / 1e6
	}

	// Close and reopen from the data directory: every acknowledged key
	// must be there, with the value it was written with.
	t0 := time.Now()
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	closed = true
	db2, err := taurus.Open(cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db2.Close()
	m["taurus.reopen_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	got, err := db2.Exec(fmt.Sprintf("SELECT id, v FROM kv WHERE id >= %d", o.sz.kvRows))
	if err != nil {
		return fmt.Errorf("listing inserted keys after reopen: %w", err)
	}
	present := make(map[int64]int64, len(got.Rows))
	for _, r := range got.Rows {
		present[r[0].I] = r[1].I
	}
	missing := 0
	for id, v := range acked {
		if pv, ok := present[id]; !ok || pv != v {
			missing++
		}
	}
	res.check(missing == 0, "%d of %d acknowledged keys missing or wrong after reopen", missing, len(acked))

	// Complement phase: cold full scans of kv through SQL, serially, on
	// the reopened fleet. The pool is cleared before each so the pass
	// ships the table from the Page Stores every time.
	wantCount := int64(o.sz.kvRows + len(present))
	settle()
	net0 := db2.NetworkStats()
	var scans series
	for i := 0; i < o.sz.coldScans; i++ {
		db2.ClearBufferPool()
		s0 := time.Now()
		r, err := db2.Exec("SELECT COUNT(*), SUM(v) FROM kv")
		scans.add(time.Since(s0))
		ok := err == nil && len(r.Rows) == 1 && r.Rows[0][0].I == wantCount
		res.check(ok, "cold scan: err=%v want count %d", err, wantCount)
	}
	net := db2.NetworkStats().Sub(net0)

	m["scan_pass_p50_ms"] = steady(0.5, scans)
	m["scan_pass_p90_ms"] = steady(0.9, scans)
	m["scan_net_mb_per_pass"] = per(float64(net.BytesReceived)/1e6, len(scans))
	statementLatencies(m, commitsBy, readsBy)
	m["stmt_per_s"] = median(meter.rates)
	m["cpu_ms_per_op"] = median(meter.cpuPerOp)
	res.timing("commit", commits)
	res.timing("point read", reads)
	res.timing("cold scan (complement)", scans)
	res.info = append(res.info, fmt.Sprintf("statements=%d window=%.2fs acked=%d", stmts, elapsed, len(acked)))

	if o.trace {
		c := opCounts{commits: len(commits), reads: len(reads), seconds: elapsed}
		layerMetricsS(m, before, after, c, float64(len(commits))*kvRowBytes)
		m["taurus.commit_p99_ms"] = quantile(commits, 0.99)
		m["taurus.commit_max_ms"] = quantile(commits, 1)
		if cp := m["commit_p50_ms"]; cp > 0 {
			m["sal.stage_sum_over_commit_p50"] = (m["sal.stage_wait_ms_p50"] + m["sal.stage_seal_ms_p50"] + m["sal.stage_append_ms_p50"]) / cp
		}
		if err := tracedOLTP(o, res); err != nil {
			return err
		}
	}
	m["peak_rss_mb"] = peakRSSMB()
	return nil
}
