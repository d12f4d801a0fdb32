package main

import (
	"runtime"
	"sync"
	"time"

	"taurus"
	"taurus/internal/buffer"
	"taurus/internal/cluster"
	"taurus/internal/engine"
	"taurus/internal/obs"
	"taurus/internal/pagestore"
	"taurus/internal/plog"
	"taurus/internal/replica"
	"taurus/internal/sal"
)

// stageNames are the write-path stages the SAL already times in its
// taurus_writepath_stage_seconds histogram family.
var stageNames = []string{"stage_wait", "seal", "append", "durable_wait", "apply"}

// layerSnap is one reading of every public stats accessor the S metrics
// are deltas of. master owns the write path; scan is the frontend the
// scans and reads run on (the replica in htap_replica, else master).
type layerSnap struct {
	net        cluster.CountersSnapshot
	eng        engine.MetricsSnapshot
	buf        buffer.ShardStats
	wp         sal.PipelineStats
	route      sal.RouterStats
	ps         pagestore.StatsSnapshot
	descHits   uint64
	descMisses uint64
	log        plog.Stats
	logBytes   int64 // bytes in the Log Stores' directories
	rep        replica.Stats
	stages     map[string]obs.HistogramSnapshot
	allocBytes uint64
}

func takeSnap(master, scan *taurus.DB, dataDir string) layerSnap {
	s := layerSnap{
		net:   master.NetworkStats(), // a replica shares its master's transport
		eng:   scan.EngineStats(),
		wp:    master.WritePathStats(),
		route: scan.ScanRouting(),
		rep:   scan.ReplicaStats(),
	}
	for _, sh := range scan.BufferPoolStats() {
		s.buf.Hits += sh.Hits
		s.buf.Misses += sh.Misses
		s.buf.Evictions += sh.Evictions
		s.buf.StaleRefetches += sh.StaleRefetches
	}
	for _, n := range master.PageStoreNodes() {
		s.ps.LogRecordsApplied += n.Stats.LogRecordsApplied
		s.ps.LogRecordsSkipped += n.Stats.LogRecordsSkipped
		s.ps.PageReads += n.Stats.PageReads
		s.ps.BatchReads += n.Stats.BatchReads
		s.ps.NDPPagesProcessed += n.Stats.NDPPagesProcessed
		s.ps.NDPPagesSkipped += n.Stats.NDPPagesSkipped
		s.ps.NDPRecordsIn += n.Stats.NDPRecordsIn
		s.ps.NDPRecordsOut += n.Stats.NDPRecordsOut
		s.descHits += n.DescCacheHits
		s.descMisses += n.DescCacheMisses
	}
	for _, n := range master.LogStoreStats() {
		s.log.Appends += n.Log.Appends
		s.log.Syncs += n.Log.Syncs
		s.log.GCBytes += n.Log.GCBytes
		if dataDir != "" {
			s.logBytes += dirBytes(dataDir + "/" + n.Name)
		}
	}
	s.stages = map[string]obs.HistogramSnapshot{}
	for _, st := range stageNames {
		s.stages[st] = master.Metrics().Histogram("taurus_writepath_stage_seconds", "", nil, obs.L("stage", st)).Snapshot()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc
	return s
}

// histDeltaP50 is the median, in milliseconds, of the observations a
// histogram took between two snapshots.
func histDeltaP50(before, after obs.HistogramSnapshot) float64 {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Max: after.Max,
		Counts: make([]uint64, len(after.Counts))}
	var n uint64
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
		n += d.Counts[i]
	}
	if n == 0 {
		return 0
	}
	return d.Quantile(0.5) * 1e3
}

// opCounts is what the clients did during the window.
type opCounts struct {
	passes  int
	commits int
	reads   int // point reads
	seconds float64
}

// ops is the workload's unit of work: passes where it scans, else
// statements.
func (c opCounts) ops() int {
	if c.passes > 0 {
		return c.passes
	}
	return c.commits + c.reads
}

func per(num float64, den int) float64 {
	if den <= 0 {
		return 0
	}
	return num / float64(den)
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetricsS fills the S metrics: counter deltas over the untraced
// window, normalised by what the clients did in it.
func layerMetricsS(m map[string]float64, a, b layerSnap, c opCounts, userBytes float64) {
	ops := c.ops()
	m["taurus.alloc_kb_per_op"] = per(float64(b.allocBytes-a.allocBytes)/1024, ops)

	eng := b.eng.Sub(a.eng)
	m["engine.rows_examined_sql_per_pass"] = per(float64(eng.RowsExaminedSQL), c.passes)
	m["engine.pred_evals_sql_per_pass"] = per(float64(eng.PredEvalsSQL), c.passes)
	m["engine.ndp_pages_consumed_per_pass"] = per(float64(eng.NDPPagesConsumed), c.passes)
	m["engine.regular_page_reads_per_pass"] = per(float64(eng.RegularPageReads), c.passes)
	m["engine.batch_reads_per_pass"] = per(float64(eng.BatchReads), c.passes)
	m["engine.agg_merges_sql_per_pass"] = per(float64(eng.AggMergesSQL), c.passes)

	hits, misses := b.buf.Hits-a.buf.Hits, b.buf.Misses-a.buf.Misses
	m["buffer.hit_rate"] = frac(hits, hits+misses)
	m["buffer.misses_per_op"] = per(float64(misses), ops)
	m["buffer.evictions_per_op"] = per(float64(b.buf.Evictions-a.buf.Evictions), ops)
	m["buffer.stale_refetches_per_op"] = per(float64(b.buf.StaleRefetches-a.buf.StaleRefetches), ops)

	m["sal.records_per_window"] = frac(b.wp.RecordsFlushed-a.wp.RecordsFlushed, b.wp.WindowsFlushed-a.wp.WindowsFlushed)
	m["sal.commit_waits_per_commit"] = per(float64(b.wp.CommitWaits-a.wp.CommitWaits), c.commits)
	m["sal.apply_waits_per_read"] = per(float64(b.wp.ApplyWaits-a.wp.ApplyWaits), c.reads)
	m["sal.backpressure_stalls"] = float64(b.wp.BackpressureStalls - a.wp.BackpressureStalls)
	for _, st := range stageNames {
		name := "sal." + st + "_ms_p50"
		if st != "stage_wait" {
			name = "sal.stage_" + st + "_ms_p50"
		}
		m[name] = histDeltaP50(a.stages[st], b.stages[st])
	}
	routed := b.route.ScanRouted - a.route.ScanRouted
	m["sal.scan_routed_per_pass"] = per(float64(routed), c.passes)
	m["sal.scan_retried_per_pass"] = per(float64(b.route.ScanRetried-a.route.ScanRetried), c.passes)
	m["sal.hedge_frac"] = frac(b.route.ScanHedged-a.route.ScanHedged, routed)

	net := b.net.Sub(a.net)
	m["cluster.batch_read_calls_per_pass"] = per(float64(net.BatchReads), c.passes)
	m["cluster.page_read_calls_per_pass"] = per(float64(net.PageReads), c.passes)
	m["cluster.log_write_calls_per_commit"] = per(float64(net.LogWrites), c.commits)
	m["cluster.req_kb_per_op"] = per(float64(net.BytesSent)/1024, ops)
	m["cluster.reply_kb_per_op"] = per(float64(net.BytesReceived)/1024, ops)

	syncs := b.log.Syncs - a.log.Syncs
	m["plog.syncs_per_commit"] = per(float64(syncs), c.commits)
	m["plog.appends_per_sync"] = frac(b.log.Appends-a.log.Appends, syncs)
	if userBytes > 0 {
		// Bytes the Log Stores wrote in the window: what their
		// directories grew by, plus what log GC reclaimed meanwhile.
		written := float64(b.logBytes-a.logBytes) + float64(b.log.GCBytes-a.log.GCBytes)
		m["plog.disk_bytes_per_user_byte"] = written / userBytes
	}

	processed := b.ps.NDPPagesProcessed - a.ps.NDPPagesProcessed
	skipped := b.ps.NDPPagesSkipped - a.ps.NDPPagesSkipped
	recIn := b.ps.NDPRecordsIn - a.ps.NDPRecordsIn
	m["pagestore.ndp_pages_processed_per_pass"] = per(float64(processed), c.passes)
	m["pagestore.ndp_skip_frac"] = frac(skipped, processed+skipped)
	m["pagestore.ndp_records_in_per_pass"] = per(float64(recIn), c.passes)
	m["pagestore.ndp_selectivity"] = frac(b.ps.NDPRecordsOut-a.ps.NDPRecordsOut, recIn)
	dh, dm := b.descHits-a.descHits, b.descMisses-a.descMisses
	m["pagestore.desc_cache_hit_rate"] = frac(dh, dh+dm)
	m["pagestore.log_records_applied_per_commit"] = per(float64(b.ps.LogRecordsApplied-a.ps.LogRecordsApplied), c.commits)
	m["pagestore.log_records_skipped_per_commit"] = per(float64(b.ps.LogRecordsSkipped-a.ps.LogRecordsSkipped), c.commits)

	m["replica.stream_batches_per_commit"] = per(float64(b.rep.StreamBatches-a.rep.StreamBatches), c.commits)
	m["replica.pages_invalidated_per_commit"] = per(float64(b.rep.PagesInvalidated-a.rep.PagesInvalidated), c.commits)
	if c.seconds > 0 {
		m["replica.refreshes_per_s"] = float64(b.rep.Refreshes-a.rep.Refreshes) / c.seconds
	}
	m["replica.resyncs"] = float64(b.rep.Resyncs-a.rep.Resyncs) + float64(b.rep.CkptResyncs-a.rep.CkptResyncs)
}

// sampler watches the gauges whose peak matters (Log Store holes and
// stream lag) and counts completed Page Store checkpoints, every 50 ms
// during the window. It is not a client: it issues no database work.
type sampler struct {
	db   *taurus.DB
	stop chan struct{}
	done sync.WaitGroup

	holesMax    int
	lagMax      uint64
	checkpoints int
}

func startSampler(db *taurus.DB) *sampler {
	s := &sampler{db: db, stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var last time.Time
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, n := range db.LogStoreStats() {
				if n.PendingHoles > s.holesMax {
					s.holesMax = n.PendingHoles
				}
				if n.StreamLag > s.lagMax {
					s.lagMax = n.StreamLag
				}
			}
			// Every store checkpoints in the same DB.Checkpoint call;
			// the first one's timestamp moving marks a completed round.
			if nodes := db.PageStoreNodes(); len(nodes) > 0 {
				if lc := nodes[0].LastCheckpoint; lc.After(last) {
					if !last.IsZero() {
						s.checkpoints++
					}
					last = lc
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and fills its metrics.
func (s *sampler) finish(m map[string]float64) {
	close(s.stop)
	s.done.Wait()
	m["logstore.pending_holes_max"] = float64(s.holesMax)
	m["logstore.stream_lag_max"] = float64(s.lagMax)
	m["pstore.checkpoints_completed"] = float64(s.checkpoints)
}
