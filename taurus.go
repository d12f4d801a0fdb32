// Package taurus is the public embedded API of the Taurus NDP
// reproduction: a cloud-native database with separated compute and
// storage and near-data processing (selection, projection, and
// aggregation pushdown into Page Stores), after "Near Data Processing in
// Taurus Database" (ICDE 2022).
//
// Open creates a complete single-process deployment: Log Stores, Page
// Stores, the Storage Abstraction Layer, and the database frontend
// (storage engine + executor + SQL). The same components can be deployed
// over TCP with cmd/taurus-server; the embedded form wires them through
// the in-process transport, whose byte accounting is exact.
//
//	db, _ := taurus.Open(taurus.Config{})
//	db.Exec(`CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
//	         salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`)
//	db.Exec(`INSERT INTO worker VALUES (1, 35, DATE '2010-03-01', 4200.00, 'ann')`)
//	res, _ := db.Exec(`SELECT AVG(salary) FROM worker WHERE age < 40`)
package taurus

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/buffer"
	"taurus/internal/cluster"
	"taurus/internal/engine"
	"taurus/internal/health"
	"taurus/internal/logstore"
	"taurus/internal/obs"
	"taurus/internal/pagestore"
	"taurus/internal/pstore"
	"taurus/internal/replica"
	"taurus/internal/sal"
	"taurus/internal/sql"
	"taurus/internal/types"
	"taurus/internal/wal"
)

// Config sizes the embedded deployment. The zero value matches the
// paper's small test cluster: four Page Stores, three-way replication.
type Config struct {
	// PageStores is the number of storage nodes (default 4).
	PageStores int
	// ReplicationFactor is slice replication (default 3).
	ReplicationFactor int
	// PoolPages is the buffer pool capacity in 16 KB pages (default 4096).
	PoolPages int
	// NDPMaxPagesLookAhead bounds NDP batch reads (default 1024).
	NDPMaxPagesLookAhead int
	// PagesPerSlice overrides the slice size in pages (default: 10 GB
	// worth of pages; small deployments may shrink it so data spreads
	// across Page Stores).
	PagesPerSlice uint64
	// DisableNDP turns pushdown off (the experiments' baseline).
	DisableNDP bool
	// ScanParallelism is the worker-pool width for partitioned NDP
	// scans: per-slice scan partitions dispatched concurrently, each to
	// the least-loaded Page Store replica of its slice (0 = GOMAXPROCS,
	// 1 = serial).
	ScanParallelism int

	// DataDir makes the Log Stores durable: each one persists its
	// acknowledged batches to a segmented on-disk log under this
	// directory, and Open replays the surviving records to rebuild both
	// the Page Stores and the frontend's data dictionary after a crash
	// or restart. It also attaches a checkpoint store to every Page
	// Store: DB.Checkpoint persists page images and the data dictionary
	// so recovery only replays the log tail above the checkpoint. Empty
	// keeps the all-in-memory behavior.
	DataDir string
	// CheckpointInterval starts the background checkpointer (requires
	// DataDir): on every tick — and once more on Close — the Page
	// Stores checkpoint their slices, the frontend checkpoints its
	// catalog (each index with its root page), and the durable log is
	// garbage-collected up to the cluster watermark (the minimum LSN
	// every slice replica has durably persisted), so a long-lived
	// node's log stops growing without bound. 0 disables automatic checkpoints;
	// DB.Checkpoint and DB.TruncateLogs remain available.
	CheckpointInterval time.Duration
	// LogFlushInterval is the Log Stores' group-commit window (default
	// 2 ms): an append is acknowledged once an fsync covering it
	// completes, and all appends arriving within the window share one
	// fsync.
	LogFlushInterval time.Duration
	// LogSegmentBytes is the Log Stores' segment rotation size
	// (default 16 MB).
	LogSegmentBytes int64

	// SlowOpThreshold arms the slow-op log: every statement whose total
	// execution time meets or exceeds it emits one structured line with
	// a per-stage breakdown (parse, plan, execute / apply, commit). 0
	// disables tracing entirely — statements then pay one branch.
	SlowOpThreshold time.Duration
	// SlowOpLogger overrides the slow-op destination (default: the
	// standard logger).
	SlowOpLogger *log.Logger

	// TraceSampleRate is the probability that a statement opens a
	// distributed trace: a root span on the frontend whose context rides
	// the cluster frames, so Log Store appends and Page Store applies on
	// other components land in the same trace tree. 0 (default) disables
	// rate-based sampling; DB.ExecTraced still forces a trace per call,
	// so the collection costs nothing until someone asks for it.
	TraceSampleRate float64

	// HeartbeatInterval is the health heartbeat period: the master pings
	// every embedded storage node (and attached replicas) each interval
	// over the cluster transport, feeding the failure detector behind
	// ClusterHealth / GET /cluster/health. 0 selects the default (1s);
	// negative disables heartbeating (the detector and peer table stay
	// empty; per-node checks still work).
	HeartbeatInterval time.Duration
	// SuspectThreshold is the heartbeat silence after which a peer turns
	// Suspect; a peer silent for twice this is Dead. Default 5s.
	SuspectThreshold time.Duration

	// Master attaches a read replica to a running master's storage
	// cluster (OpenReplica only; ignored by Open). The replica shares
	// the master's Log Stores and Page Stores, follows a Log Store's
	// push stream to advance its visible LSN, and serves read-only SQL.
	Master *DB
}

// DB is an open database frontend: a read-write master (Open) or a
// read-only replica (OpenReplica).
type DB struct {
	cfg       Config
	session   *sql.Session
	eng       *engine.Engine
	tr        *cluster.InProc
	stores    []*pagestore.Store
	logs      []*logstore.Store
	logNames  []string
	psNames   []string
	recovered engine.RecoveryStats
	summary   RecoverySummary

	// obsReg collects every component's metrics for Prometheus export.
	obsReg *obs.Registry

	// tracer is this frontend's span collector (statement roots, SAL
	// pipeline spans, client rpc spans); tracers additionally holds every
	// embedded component's collector so TraceSpans can assemble the
	// cross-"node" tree the way a TCP deployment would by querying each
	// server. events is this node's flight recorder.
	tracer  *obs.Tracer
	tracers []*obs.Tracer
	events  *obs.EventRing

	// health is this frontend's own check monitor (SAL pipeline and
	// checkpointer probes on a master, lag/stream probes on a replica);
	// det is the master's failure detector over the storage fleet and
	// attached replicas, driven by the heartbeat pinger goroutine
	// (hbStop/hbDone). det is nil on replicas and when heartbeats are
	// disabled.
	health *health.Monitor
	det    *health.Detector
	hbStop chan struct{}
	hbDone chan struct{}

	// Replica state (OpenReplica); master tracks how many replicas it
	// has named so far.
	rep     *replica.Replica
	repName string
	master  *DB
	repSeq  atomic.Uint64

	// meta is the frontend's checkpoint store (catalog, allocators);
	// nil without DataDir.
	meta *pstore.Store
	// ckMu serializes checkpoints; lastCkptLSN is the watermark of the
	// last durably written meta checkpoint — the highest LSN log GC may
	// reach, because records below it are covered by durable page
	// checkpoints AND the catalog below it is in the durable meta.
	ckMu        sync.Mutex
	lastCkptLSN uint64
	ckErr       error

	ckStop chan struct{}
	ckDone chan struct{}
}

// RecoverySummary reports how Open rebuilt the deployment from DataDir.
type RecoverySummary struct {
	// CheckpointLSN is the watermark of the meta checkpoint recovery
	// started from (0 = full log replay).
	CheckpointLSN uint64
	// RestoredSlices/RestoredPages count what the Page Stores loaded
	// from slice checkpoints; CorruptCheckpoints counts checkpoint
	// files that failed validation and were ignored.
	RestoredSlices     int
	RestoredPages      int
	CorruptCheckpoints int
	// TailRecords is how many log records were replayed on top of the
	// checkpoints (the whole log when CheckpointLSN is 0).
	TailRecords int
}

// Result is a statement result.
type Result = sql.Result

// Row is a result row.
type Row = types.Row

// Open builds the deployment. With Config.DataDir set it also recovers:
// log records that were acknowledged before the last shutdown (or
// crash) are read back from disk — a torn final record is detected by
// CRC and discarded — and replayed through the regular Page Store apply
// path, so every committed transaction is visible again.
func Open(cfg Config) (_ *DB, err error) {
	if cfg.CheckpointInterval > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("taurus: CheckpointInterval requires DataDir")
	}
	if cfg.PageStores <= 0 {
		cfg.PageStores = 4
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 4096
	}
	tr := cluster.NewInProc()
	reg := obs.NewRegistry()
	rpc := cluster.NewRPCMetrics(reg, "client")
	tr.Metrics = rpc
	db := &DB{cfg: cfg, tr: tr, obsReg: reg}
	// A failed Open stops what it started: the SAL's pipeline and the
	// Log Stores' stream hubs and disk segments.
	var s *sal.SAL
	defer func() {
		if err != nil {
			if s != nil {
				s.Close()
			}
			db.closeLogs()
		}
	}()
	// One tracer per embedded component, exactly as a TCP deployment has
	// one per server: spans carry their collector's node name, and
	// TraceSpans merges the rings the way taurus-sql -trace queries each
	// node's /trace endpoint.
	db.tracer = obs.NewTracer("frontend", cfg.TraceSampleRate, 0)
	db.tracers = append(db.tracers, db.tracer)
	tr.Tracer = db.tracer // client rpc spans are issued from this frontend
	db.events = obs.NewEventRing(0)
	logNames := []string{"log1", "log2", "log3"}
	for _, n := range logNames {
		var ls *logstore.Store
		if cfg.DataDir == "" {
			ls = logstore.New(n)
		} else {
			var opts []logstore.Option
			if cfg.LogFlushInterval > 0 {
				opts = append(opts, logstore.WithFlushInterval(cfg.LogFlushInterval))
			}
			if cfg.LogSegmentBytes > 0 {
				opts = append(opts, logstore.WithSegmentBytes(cfg.LogSegmentBytes))
			}
			ls, err = logstore.Open(n, filepath.Join(cfg.DataDir, n), opts...)
			if err != nil {
				return nil, err
			}
		}
		ls.RegisterMetrics(reg)
		lt := obs.NewTracer(n, cfg.TraceSampleRate, 0)
		ls.SetTracer(lt)
		ls.SetEvents(db.events)
		lm := health.NewMonitor(n, "logstore",
			health.MonitorOptions{Events: db.events})
		ls.RegisterHealth(lm)
		ls.SetHealth(lm)
		db.tracers = append(db.tracers, lt)
		db.logs = append(db.logs, ls)
		db.logNames = append(db.logNames, n)
		tr.Register(n, ls)
		// Arm the push-stream hub: the store reaches subscribed replicas
		// over the same fabric they reach it on.
		ls.SetPushTransport(tr)
	}
	var psNames []string
	for i := 0; i < cfg.PageStores; i++ {
		name := fmt.Sprintf("pagestore-%d", i+1)
		pt := obs.NewTracer(name, cfg.TraceSampleRate, 0)
		db.tracers = append(db.tracers, pt)
		popts := []pagestore.Option{pagestore.WithMetrics(reg),
			pagestore.WithTracer(pt), pagestore.WithEvents(db.events)}
		if cfg.DataDir != "" {
			cs, err := pstore.Open(pstore.Options{Dir: filepath.Join(cfg.DataDir, name)})
			if err != nil {
				return nil, err
			}
			popts = append(popts, pagestore.WithCheckpoints(cs))
		}
		ps := pagestore.New(name, popts...)
		if cfg.DataDir != "" {
			rst, err := ps.Restore()
			if err != nil {
				return nil, fmt.Errorf("taurus: restoring %s: %w", name, err)
			}
			db.summary.RestoredSlices += rst.Slices
			db.summary.RestoredPages += rst.Pages
			db.summary.CorruptCheckpoints += rst.Corrupt
		}
		pm := health.NewMonitor(name, "pagestore",
			health.MonitorOptions{Events: db.events})
		ps.RegisterHealth(pm, cfg.CheckpointInterval)
		ps.SetHealth(pm)
		db.stores = append(db.stores, ps)
		psNames = append(psNames, name)
		tr.Register(name, ps)
	}
	db.psNames = psNames
	if cfg.DataDir != "" {
		db.meta, err = pstore.Open(pstore.Options{Dir: filepath.Join(cfg.DataDir, "frontend")})
		if err != nil {
			return nil, err
		}
	}
	s, err = sal.New(sal.Config{
		Tenant: 1, Transport: tr, LogStores: logNames, PageStores: psNames,
		ReplicationFactor: cfg.ReplicationFactor, PagesPerSlice: cfg.PagesPerSlice,
		Plugin: pagestore.PluginInnoDB, Metrics: reg,
		Tracer: db.tracer, Events: db.events,
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		SAL: s, PoolPages: cfg.PoolPages, NDPMaxPagesLookAhead: cfg.NDPMaxPagesLookAhead,
		ScanParallelism: cfg.ScanParallelism, Tracer: db.tracer, Events: db.events,
	})
	if err != nil {
		return nil, err
	}
	eng.RegisterMetrics(reg, "master")
	eng.Pool().RegisterMetrics(reg, "master")
	db.eng = eng
	db.session = sql.NewSession(eng)
	db.session.NDP = !cfg.DisableNDP
	db.session.Slow = obs.NewSlowOpLog(cfg.SlowOpThreshold, cfg.SlowOpLogger)
	db.session.Tracer = db.tracer
	reg.CounterFunc("taurus_slow_ops_fired_total",
		"Statements the slow-op log fired on (met or exceeded its threshold).",
		func() float64 { return float64(db.session.Slow.Fired()) })
	if cfg.DataDir != "" {
		if err := db.recover(s, eng); err != nil {
			return nil, err
		}
	}
	if cfg.CheckpointInterval > 0 {
		db.ckStop = make(chan struct{})
		db.ckDone = make(chan struct{})
		go db.checkpointLoop(cfg.CheckpointInterval)
	}
	// The master's own monitor: write-pipeline invariants plus the
	// background checkpointer's sticky error.
	db.health = health.NewMonitor("frontend", "frontend",
		health.MonitorOptions{Events: db.events})
	s.RegisterHealth(db.health)
	db.health.AddProbe(db.checkpointerProbe())
	// Heartbeats: the master pings every embedded storage node on the
	// same InProc fabric requests use, so the detector measures exactly
	// "can this node answer an RPC".
	if cfg.HeartbeatInterval >= 0 {
		hb := cfg.HeartbeatInterval
		if hb == 0 {
			hb = time.Second
		}
		db.det = health.NewDetector(hb, cfg.SuspectThreshold, db.events)
		for _, n := range db.logNames {
			db.det.Track(n, "logstore")
		}
		for _, n := range db.psNames {
			db.det.Track(n, "pagestore")
		}
		db.hbStop = make(chan struct{})
		db.hbDone = make(chan struct{})
		go func() {
			defer close(db.hbDone)
			cluster.RunHealthPinger(tr, db.det, "frontend", db.hbStop, cluster.PingerOptions{})
		}()
	}
	return db, nil
}

// checkpointerProbe reports the background checkpointer's state: its
// failure is sticky (the loop exits), so without this check a wedged
// checkpointer is invisible until Close.
func (db *DB) checkpointerProbe() health.Probe {
	return func() health.Check {
		const name, rb = "frontend.checkpointer", "RB-CHECKPOINTER"
		if db.cfg.CheckpointInterval <= 0 {
			return health.Checkf(name, rb, health.StatusOK, nil,
				"background checkpointer disabled")
		}
		db.ckMu.Lock()
		err := db.ckErr
		lsn := db.lastCkptLSN
		db.ckMu.Unlock()
		ev := map[string]string{"last_ckpt_lsn": fmt.Sprintf("%d", lsn)}
		if err != nil {
			ev["error"] = err.Error()
			return health.Checkf(name, rb, health.StatusCritical, ev,
				"checkpointer stopped on sticky error: %v", err)
		}
		return health.Checkf(name, rb, health.StatusOK, ev,
			"checkpointing every %s", db.cfg.CheckpointInterval)
	}
}

// OpenReplica attaches a read-only frontend to a running master's
// storage cluster (cfg.Master): the replica bootstraps its catalog
// (each index with its root page) from the master's latest checkpoint
// meta (or, without one, from the full log), then subscribes to a Log
// Store's push stream to advance a replica-visible LSN and serves
// SELECTs from the shared Page Stores at that snapshot. DML and DDL are rejected; writes go to
// the master and become visible on the replica after catch-up (bounded
// lag): the master's SAL relays its durable and applied frontier to the
// Log Stores, whose hubs push it with the records, so the replica trails
// by one pushed frame. Close the replica before closing its master.
func OpenReplica(cfg Config) (*DB, error) {
	m := cfg.Master
	if m == nil {
		return nil, fmt.Errorf("taurus: OpenReplica requires Config.Master")
	}
	if m.rep != nil {
		return nil, fmt.Errorf("taurus: cannot open a replica of a replica")
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 4096
	}
	// Each replica gets its own registry (its own /metrics page in a TCP
	// deployment); the name labels its series so fleets of replicas stay
	// distinguishable when scraped into one place.
	reg := obs.NewRegistry()
	repName := fmt.Sprintf("replica-%d", m.repSeq.Add(1))
	repTracer := obs.NewTracer(repName, cfg.TraceSampleRate, 0)
	repEvents := obs.NewEventRing(0)
	repCfg := replica.Config{
		Transport: m.tr, Tenant: 1,
		LogStores: m.logNames, PageStores: m.psNames,
		ReplicationFactor: m.cfg.ReplicationFactor,
		PagesPerSlice:     m.cfg.PagesPerSlice,
		Plugin:            pagestore.PluginInnoDB,
		Metrics:           reg,
		Name:              repName,
		Events:            repEvents,
		Node:              repName,
	}
	if m.meta != nil {
		// Rebase on the master's latest checkpoint when log GC overran a
		// detached tail.
		repCfg.LoadCheckpoint = m.meta.LoadMeta
	}
	rep, err := replica.New(repCfg)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		ReadView: rep, PoolPages: cfg.PoolPages,
		NDPMaxPagesLookAhead: cfg.NDPMaxPagesLookAhead,
		ScanParallelism:      cfg.ScanParallelism,
		Tracer:               repTracer,
		Events:               repEvents,
	})
	if err != nil {
		return nil, err
	}
	eng.RegisterMetrics(reg, repName)
	eng.Pool().RegisterMetrics(reg, repName)
	db := &DB{cfg: cfg, eng: eng, tr: m.tr, rep: rep, master: m,
		logNames: m.logNames, psNames: m.psNames,
		obsReg: reg, repName: repName,
		tracer: repTracer, events: repEvents}
	// A replica's trace queries see its own spans plus the shared storage
	// components' — rpc spans land on the shared transport's collector,
	// server spans on the Log/Page Store collectors.
	db.tracers = append([]*obs.Tracer{repTracer}, m.tracers...)
	db.session = sql.NewSession(eng)
	db.session.NDP = !cfg.DisableNDP
	db.session.ReadOnly = true
	db.session.Slow = obs.NewSlowOpLog(cfg.SlowOpThreshold, cfg.SlowOpLogger)
	db.session.Tracer = repTracer
	reg.CounterFunc("taurus_slow_ops_fired_total",
		"Statements the slow-op log fired on (met or exceeded its threshold).",
		func() float64 { return float64(db.session.Slow.Fired()) })
	rm := health.NewMonitor(repName, "replica",
		health.MonitorOptions{Events: repEvents})
	rep.RegisterHealth(rm)
	rep.SetHealth(rm)
	db.health = rm
	rep.Bind(eng, func(table string) {
		// A table the master created after the replica opened (streamed
		// or merged by a checkpoint rebase): refresh its optimizer
		// statistics so NDP decisions see it.
		db.session.Cat.Analyze(table)
	})
	// Bootstrap the catalog from the master's latest checkpoint meta:
	// every record at or below its watermark is in a durable slice
	// checkpoint (hence applied), so the tail starts there. Without a
	// meta (in-memory master, or none written yet) the replica tails
	// the log from the beginning and attaches DDL as it streams past.
	start := uint64(0)
	if m.meta != nil {
		meta, err := m.meta.LoadMeta()
		if err != nil {
			return nil, err
		}
		if meta != nil {
			if _, err := eng.RecoverFrom(meta, nil); err != nil {
				return nil, fmt.Errorf("taurus: replica bootstrap: %w", err)
			}
			start = meta.AppliedLSN
		}
	}
	// Register the replica's handler before it subscribes so no stream
	// frame is missed, and arm the SAL's frontier relay, whose cost is
	// O(#LogStores) per advance regardless of replica count.
	m.tr.Register(db.repName, rep)
	m.eng.SAL().AddFrontierWatch()
	// Catch up to everything the master had committed when we opened —
	// the SAL's acknowledged commit watermark, not the per-store max
	// (a store can hold batches whose sibling acks are still in
	// flight, which the visible LSN is gated never to pass): a SELECT
	// issued right after OpenReplica sees every acknowledged commit.
	if err := rep.Start(start, m.eng.SAL().DurableLSN()); err != nil {
		m.eng.SAL().RemoveFrontierWatch()
		m.tr.Unregister(db.repName)
		return nil, fmt.Errorf("taurus: replica catch-up: %w", err)
	}
	// Optimizer statistics for the bootstrapped tables (the master's
	// ANALYZE-equivalent on restart).
	for _, name := range eng.Tables() {
		if _, err := db.session.Cat.Analyze(name); err != nil {
			db.Close()
			return nil, fmt.Errorf("taurus: analyzing replicated table %s: %w", name, err)
		}
	}
	// The replica answers MsgPing on the shared transport, so the
	// master's failure detector can watch it like any storage peer.
	m.det.Track(repName, "replica")
	return db, nil
}

// IsReplica reports whether this frontend is a read replica.
func (db *DB) IsReplica() bool { return db.rep != nil }

// ReplicaStats reports a replica's stream-following state: visible LSN,
// lag in records and bytes, pushed-frame and snapshot-miss counts, pages
// invalidated, and DDL attached. Zero value on a master.
func (db *DB) ReplicaStats() replica.Stats {
	if db.rep == nil {
		return replica.Stats{}
	}
	return db.rep.Stats()
}

// recover rebuilds the deployment from DataDir. With a valid checkpoint
// set, recovery is O(log tail): the Page Stores already restored their
// slice checkpoints, the frontend's meta checkpoint supplies the
// catalog (with each index's root page) and allocator marks, and only
// log records above the checkpoint watermark are replayed through the
// Page Store apply path. Without one (or when any slice checkpoint failed
// validation), the whole surviving log is replayed as in PR 1 —
// restored slices skip their prefix idempotently.
func (db *DB) recover(s *sal.SAL, eng *engine.Engine) error {
	meta, err := db.meta.LoadMeta()
	if err != nil {
		return err
	}
	after := uint64(0)
	if meta != nil {
		// The tail starts at the checkpoint watermark — unless a slice
		// checkpoint was damaged, in which case its slice must be
		// rebuilt from the full log (intact slices skip the prefix
		// idempotently; RecoverFrom dedupes catalog overlap). A damaged
		// checkpoint also stops seeding the GC watermark: records the
		// damaged file was the only durable copy of must stay in the
		// log until a fresh checkpoint covers them again.
		if db.summary.CorruptCheckpoints == 0 {
			after = meta.AppliedLSN
			db.lastCkptLSN = meta.AppliedLSN
		}
		db.summary.CheckpointLSN = meta.AppliedLSN
	}
	// The Log Stores are written in triplicate and acknowledged
	// synchronously, so they normally agree; after a crash the one with
	// the highest durable LSN wins (Taurus: "the master finds the Log
	// Store with the highest LSN"). Every Log Store holds an LSN prefix,
	// so the winner holds every other store's records, and the lagging
	// stores catch up from its persistent log so the triplicate set
	// converges again.
	bi := 0
	for i, ls := range db.logs {
		if ls.DurableLSN() > db.logs[bi].DurableLSN() {
			bi = i
		}
	}
	best := db.logs[bi]
	for _, ls := range db.logs {
		if ls == best || !ls.Durable() || ls.DurableLSN() >= best.DurableLSN() {
			continue
		}
		if _, err := ls.CatchUp(best); err != nil {
			return fmt.Errorf("taurus: log replica catch-up: %w", err)
		}
	}
	recs := best.ReadFrom(after)
	db.summary.TailRecords = len(recs)
	// The replayed tail must be an LSN prefix above the checkpoint.
	// Without a checkpoint meta no GC can have run, so it starts at LSN
	// 1; with a damaged slice checkpoint (after == 0 under a meta) a
	// collected prefix is handled below.
	prev := after
	if after == 0 && meta != nil && len(recs) > 0 {
		prev = recs[0].LSN - 1
	}
	for _, rec := range recs {
		if rec.LSN != prev+1 {
			return fmt.Errorf("taurus: log %s has a gap: LSN %d missing (next record is %d)",
				db.logNames[bi], prev+1, rec.LSN)
		}
		prev = rec.LSN
	}
	if db.summary.CorruptCheckpoints > 0 {
		// The damaged slice can only be rebuilt from the full log. If
		// watermark GC already collected the prefix (LSNs start past 1),
		// that history is gone — fail loudly rather than silently serve
		// a replica missing acknowledged rows. Repairing from a sibling
		// replica's checkpoint is a ROADMAP item.
		if (len(recs) == 0 && meta != nil && meta.AppliedLSN > 0) ||
			(len(recs) > 0 && recs[0].LSN > 1) {
			return fmt.Errorf("taurus: %d corrupt slice checkpoint(s) and the log prefix below LSN %d was garbage-collected; slice unrecoverable from this node's disk",
				db.summary.CorruptCheckpoints, firstLSN(recs))
		}
	}
	if len(recs) == 0 && meta == nil && best.DurableLSN() == 0 {
		return nil
	}
	// Resume the LSN allocator at the log's end: LSNs handed out but
	// never made durable before the crash are reissued, so the log
	// stays a prefix.
	s.ResumeLSN(best.DurableLSN())
	if err := s.Replay(recs); err != nil {
		return fmt.Errorf("taurus: replaying %d records: %w", len(recs), err)
	}
	st, err := eng.RecoverFrom(meta, recs)
	if err != nil {
		return fmt.Errorf("taurus: recovering catalog: %w", err)
	}
	db.recovered = st
	// Refresh optimizer statistics so NDP decisions see the recovered
	// data (the paper's ANALYZE-equivalent runs on restart).
	for _, name := range eng.Tables() {
		if _, err := db.session.Cat.Analyze(name); err != nil {
			return fmt.Errorf("taurus: analyzing recovered table %s: %w", name, err)
		}
	}
	return nil
}

// firstLSN returns the first record's LSN (0 for an empty slice).
func firstLSN(recs []wal.Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[0].LSN
}

// CheckpointResult reports one Checkpoint call.
type CheckpointResult struct {
	// Watermark is the cluster LSN the checkpoint set now covers:
	// every record at or below it is in a durable slice checkpoint on
	// every replica and the catalog is in the durable meta checkpoint.
	Watermark uint64
	// SlicesWritten/SlicesClean/PagesWritten/BytesWritten total the
	// Page Store side; clean slices were already persisted at their
	// applied LSN and were skipped.
	SlicesWritten int
	SlicesClean   int
	PagesWritten  int
	BytesWritten  int64
}

// Checkpoint persists the deployment's state so recovery no longer
// needs the full log: every Page Store writes its dirty slices (page
// images + applied LSN, atomically per slice), then the frontend writes
// its meta checkpoint (catalog entries with their root pages, allocator
// high-water marks, and the cluster watermark aggregated by the SAL).
// It does not truncate the log — TruncateLogs (or the background
// checkpointer) does that against the durable watermark.
func (db *DB) Checkpoint() (*CheckpointResult, error) {
	if db.meta == nil {
		return nil, fmt.Errorf("taurus: Checkpoint requires Config.DataDir")
	}
	db.ckMu.Lock()
	defer db.ckMu.Unlock()
	// Snapshot barrier: everything executed up to this point must be
	// durable and applied before the slices snapshot — but new writes
	// keep flowing. (A full Flush waits for pending == 0, a moment that
	// may never come under sustained writers, starving the background
	// checkpointer into full-replay recoveries.)
	if err := db.eng.SAL().Barrier(); err != nil {
		return nil, err
	}
	res := &CheckpointResult{}
	for _, ps := range db.stores {
		st, err := ps.Checkpoint()
		if err != nil {
			return nil, err
		}
		res.SlicesWritten += st.SlicesWritten
		res.SlicesClean += st.SlicesClean
		res.PagesWritten += st.Pages
		res.BytesWritten += st.Bytes
	}
	// The watermark comes from the SAL's cluster-wide aggregation (the
	// same query path a TCP deployment uses), after the slice writes so
	// it reflects them.
	w, err := db.eng.SAL().GCWatermark()
	if err != nil {
		return nil, err
	}
	res.Watermark = w
	meta := db.eng.CheckpointBase()
	meta.AppliedLSN = w
	if err := db.meta.WriteMeta(meta); err != nil {
		return nil, err
	}
	if w > db.lastCkptLSN {
		db.lastCkptLSN = w
	}
	return res, nil
}

// TruncateLogs garbage-collects the durable log up to the last durably
// checkpointed watermark: records the checkpoint set covers are dropped
// from the Log Stores and sealed segments wholly below them deleted.
// Returns the segments removed across all Log Stores.
func (db *DB) TruncateLogs() (int, error) {
	db.ckMu.Lock()
	w := db.lastCkptLSN
	db.ckMu.Unlock()
	if w == 0 {
		return 0, nil
	}
	// TruncateBelow keeps LSN >= watermark; records ≤ w are covered.
	res, err := db.eng.SAL().TruncateLogs(w + 1)
	if err != nil {
		return res.SegmentsRemoved, err
	}
	return res.SegmentsRemoved, nil
}

// checkpointLoop is the background checkpointer: checkpoint, then GC
// the log against the new durable watermark. A failure is sticky and
// surfaced by Close — durability is not at risk (the log still has
// everything), but the recovery fast path stops advancing.
func (db *DB) checkpointLoop(interval time.Duration) {
	defer close(db.ckDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-db.ckStop:
			return
		case <-t.C:
			if _, err := db.Checkpoint(); err != nil {
				db.ckMu.Lock()
				if db.ckErr == nil {
					db.ckErr = err
				}
				db.ckMu.Unlock()
				return
			}
			if _, err := db.TruncateLogs(); err != nil {
				db.ckMu.Lock()
				if db.ckErr == nil {
					db.ckErr = err
				}
				db.ckMu.Unlock()
				return
			}
		}
	}
}

// closeLogs releases any disk-backed Log Stores (partial-open cleanup
// and DB.Close).
func (db *DB) closeLogs() error {
	var first error
	for _, ls := range db.logs {
		if ls == nil {
			continue
		}
		if err := ls.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes all buffered log records to the storage services and
// releases the Log Stores' on-disk segments. With the background
// checkpointer enabled it also stops it and takes a final checkpoint,
// so the next Open recovers from the checkpoint with an empty log tail.
// The database must not be used afterwards. Close is not required for
// durability — every acknowledged statement already survived — but it
// makes the final buffered (unacknowledged) records durable too.
func (db *DB) Close() error {
	if db.rep != nil {
		// Replica: stop its loop and drop the master's frontier watch
		// and transport registration (a master that cycles replicas
		// must not accumulate dead handlers). The shared storage nodes
		// belong to the master. rep.Close runs before the transport
		// unregistration so the stream detach and version pin clears
		// still reach the storage nodes.
		db.master.eng.SAL().RemoveFrontierWatch()
		db.rep.Close()
		db.master.tr.Unregister(db.repName)
		db.master.det.Forget(db.repName)
		return nil
	}
	var firstErr error
	if db.hbStop != nil {
		close(db.hbStop)
		<-db.hbDone
		// Close must stay idempotent (callers defer it defensively).
		db.hbStop = nil
	}
	if db.ckStop != nil {
		close(db.ckStop)
		<-db.ckDone
		db.ckMu.Lock()
		firstErr = db.ckErr
		db.ckMu.Unlock()
		if firstErr == nil {
			// Final checkpoint on clean shutdown.
			if _, err := db.Checkpoint(); err != nil {
				firstErr = err
			} else if _, err := db.TruncateLogs(); err != nil {
				firstErr = err
			}
		}
	}
	// SAL.Close drains the write pipeline (everything staged becomes
	// durable and applied) and stops its goroutines.
	if err := db.eng.SAL().Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := db.closeLogs(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		// Going down with an error: dump the flight recorder so the
		// structural events leading up to it survive in the log.
		logger := db.cfg.SlowOpLogger
		if logger == nil {
			logger = log.Default()
		}
		db.events.Dump(logger)
	}
	return firstErr
}

// RecoveryStats reports what Open rebuilt from DataDir (zero value for
// a fresh or in-memory database).
func (db *DB) RecoveryStats() engine.RecoveryStats { return db.recovered }

// RecoverySummary reports how Open recovered: checkpoint watermark,
// restored slices/pages, and the log tail replayed on top.
func (db *DB) RecoverySummary() RecoverySummary { return db.summary }

// LogStoreStats returns per-Log-Store node statistics (durable and GC
// watermarks, segment counts, persistent-log counters).
func (db *DB) LogStoreStats() []logstore.NodeStats {
	out := make([]logstore.NodeStats, len(db.logs))
	for i, ls := range db.logs {
		out[i] = ls.NodeStats()
	}
	return out
}

// DurableLSN returns the highest log sequence number acknowledged by
// any of the Log Store replicas (0 for a deployment with nothing
// flushed yet).
func (db *DB) DurableLSN() uint64 {
	var max uint64
	for _, ls := range db.logs {
		if l := ls.DurableLSN(); l > max {
			max = l
		}
	}
	return max
}

// Exec parses and executes one SQL statement (CREATE TABLE, INSERT,
// SELECT, EXPLAIN SELECT).
func (db *DB) Exec(query string) (*Result, error) { return db.session.Exec(query) }

// ExecTraced executes one statement with a forced distributed trace and
// returns the trace ID alongside the result. Fetch the assembled tree with
// TraceSpans — it will contain the frontend's statement root plus, for a
// write, SAL window/append/apply spans and the Log and Page Store server
// spans the propagated context produced on those components.
func (db *DB) ExecTraced(query string) (*Result, uint64, error) {
	return db.session.ExecTraced(query, true)
}

// Tracer returns this frontend's span collector (statement roots, SAL
// pipeline spans, client rpc spans). Its sampling rate is
// Config.TraceSampleRate.
func (db *DB) Tracer() *obs.Tracer { return db.tracer }

// TraceSpans returns every span the deployment collected for a trace ID,
// merged across the embedded components — exactly what a TCP deployment
// assembles by querying each server's /trace/<id>. Render the tree with
// obs.FormatTrace(obs.AssembleTrace(spans)).
func (db *DB) TraceSpans(id uint64) []obs.Span {
	var out []obs.Span
	for _, t := range db.tracers {
		out = append(out, t.Spans(id)...)
	}
	return out
}

// RecentTraces returns up to n recently completed root trace IDs on this
// frontend, newest first.
func (db *DB) RecentTraces(n int) []uint64 { return db.tracer.RecentTraces(n) }

// Events returns this node's flight-recorder contents, oldest first:
// window seals by reason, checkpoints, log GC truncations, replica
// resyncs and sticky-error poisoning. The ring is bounded; old events
// are overwritten.
func (db *DB) Events() []obs.Event { return db.events.Events() }

// EventRing returns the flight recorder itself (for HTTP exposure:
// EventRing().Handler() serves GET /events).
func (db *DB) EventRing() *obs.EventRing { return db.events }

// Health returns this node's check monitor: the backing for /healthz,
// /ready, and /health on a server.
func (db *DB) Health() *health.Monitor { return db.health }

// HealthReport evaluates and returns this node's own health report.
func (db *DB) HealthReport() health.Report { return db.health.Report() }

// HealthDetector returns the master's failure detector (nil on replicas
// and when Config.HeartbeatInterval is negative). External deployments
// Track additional TCP peers on it; peers observed out-of-band (e.g. a
// TCP pinger in taurus-server) land in the same ClusterHealth view.
func (db *DB) HealthDetector() *health.Detector { return db.det }

// ClusterHealth aggregates this node's own report with the failure
// detector's peer table — the payload of GET /cluster/health.
func (db *DB) ClusterHealth() health.ClusterView {
	node := "frontend"
	if db.rep != nil {
		node = db.repName
	}
	return health.ClusterView{
		Node: node, Time: time.Now(),
		Self:  db.health.Report(),
		Peers: db.det.Snapshot(),
	}
}

// SlowOpsFired counts statements the slow-op log fired on (also exported
// as taurus_slow_ops_fired_total).
func (db *DB) SlowOpsFired() uint64 { return db.session.Slow.Fired() }

// SetNDP toggles near-data processing for subsequent queries.
func (db *DB) SetNDP(enabled bool) { db.session.NDP = enabled }

// NDPEnabled reports the current setting.
func (db *DB) NDPEnabled() bool { return db.session.NDP }

// SetNDPPageThreshold overrides the optimizer's minimum estimated scan
// I/O (in pages) for NDP eligibility — the paper's 10,000-page rule,
// which small embedded datasets usually want lowered.
func (db *DB) SetNDPPageThreshold(pages int64) { db.session.Cat.NDPPageThreshold = pages }

// Engine exposes the storage engine for advanced (typed) access: bulk
// loads, explicit scans, custom plans.
func (db *DB) Engine() *engine.Engine { return db.eng }

// ClearBufferPool drops all cached pages, so the next scan reads from
// the Page Stores ("cold" start, as the paper's experiments begin).
func (db *DB) ClearBufferPool() { db.eng.Pool().Clear() }

// NetworkStats returns cumulative compute↔storage traffic counters.
func (db *DB) NetworkStats() cluster.CountersSnapshot { return db.tr.Stats.Snapshot() }

// EngineStats returns cumulative SQL-node work counters.
func (db *DB) EngineStats() engine.MetricsSnapshot { return db.eng.Metrics.Snapshot() }

// WritePathStats returns the SAL's group-commit pipeline counters:
// windows flushed and sealed by reason, backpressure stalls,
// commit/apply waits, current in-flight depth, the durable watermark,
// and each slice's apply lag and backlog — enough to confirm from the
// stats endpoint that slices apply independently.
func (db *DB) WritePathStats() sal.PipelineStats {
	if db.eng.SAL() == nil {
		return sal.PipelineStats{} // replica: no write path
	}
	return db.eng.SAL().Stats()
}

// BufferPoolStats returns per-shard buffer pool counters (residency,
// hits/misses, evictions, singleflight-shared fetches).
func (db *DB) BufferPoolStats() []buffer.ShardStats {
	return db.eng.Pool().ShardStatsSnapshot()
}

// PageStoreStats returns per-store counters (log records applied, NDP
// pages processed and skipped, ...).
func (db *DB) PageStoreStats() []pagestore.StatsSnapshot {
	out := make([]pagestore.StatsSnapshot, len(db.stores))
	for i, ps := range db.stores {
		out[i] = ps.Snapshot()
	}
	return out
}

// PageStoreNodes returns each embedded Page Store's full node view
// (counters plus descriptor-cache hit/miss totals, NDP queue depth,
// LSN watermarks, and per-slice state) — what a TCP deployment serves
// from each store's /stats endpoint.
func (db *DB) PageStoreNodes() []pagestore.NodeStats {
	out := make([]pagestore.NodeStats, len(db.stores))
	for i, ps := range db.stores {
		out[i] = ps.NodeStats()
	}
	return out
}

// SetScanParallelism resizes the partitioned NDP scan worker pool at
// runtime (0 = GOMAXPROCS, 1 = serial).
func (db *DB) SetScanParallelism(n int) { db.eng.SetScanParallelism(n) }

// ScanRouting snapshots this frontend's scan read router: per-slice
// sub-batches routed (scan_routed), re-sent after a failed call
// (scan_retried; scan_hedged is always 0), and the per-store
// in-flight/EWMA-latency trackers behind the least-loaded pick.
func (db *DB) ScanRouting() sal.RouterStats {
	if db.rep != nil {
		return db.rep.RouterStats()
	}
	return db.eng.SAL().RouterStats()
}

// Metrics returns the deployment's metrics registry: the families a
// gate or runbook reads. A master's covers its embedded components (SAL
// write-path stages, Log and Page Stores, buffer pool, engine,
// per-MsgType RPC calls); a replica's covers its advance cycle, engine,
// and buffer pool. Every other counter is in the *Stats accessors.
// Serve it over HTTP with Metrics().Handler() or render it with
// WritePrometheus.
func (db *DB) Metrics() *obs.Registry { return db.obsReg }
