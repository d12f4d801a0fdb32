// taurus-server runs a standalone Page Store (or Log Store) behind the
// TCP transport, so a storage layer can be deployed as separate
// processes. A frontend connects by configuring the SAL with the
// servers' addresses and cluster.NewTCPClient as the transport.
//
// Usage:
//
//	taurus-server -listen :7000 -role pagestore -data-dir /var/lib/taurus/ps1
//	taurus-server -listen :7100 -role logstore -data-dir /var/lib/taurus/log1
//
// A logstore with -data-dir persists acknowledged batches to a
// segmented on-disk log and recovers them (tolerating a torn tail) on
// restart. A pagestore with -data-dir checkpoints its slices there on
// -checkpoint-interval and restores them on restart, reporting its
// persisted LSN so the frontend's SAL can drive log GC. Without
// -data-dir either node is memory-only.
//
// -stats-addr serves the observability endpoints of every role:
//
//	GET /stats         role-specific counters as JSON (backward-compatible)
//	GET /metrics       the families a gate or runbook reads, Prometheus text
//	GET /healthz       liveness (always 200 while the process serves)
//	GET /ready         readiness (503 until recovered and no check critical)
//	GET /health        the node's full health-check report
//	GET /debug/pprof/  net/http/pprof profiles
//
// The frontend additionally serves GET /cluster/health: its own report
// plus the failure detector's view of every storage node and replica.
// With -peers role=addr,... it also heartbeats external cluster
// processes over TCP and folds their Alive/Suspect/Dead states into the
// same view (tune with -heartbeat-interval and -suspect-threshold).
//
// Log Stores report durable and GC watermarks plus the persistent log's
// counters (appends, fsyncs, rotations, GC bytes reclaimed); Page Stores
// report applied/persisted LSNs, apply/skip counters, and checkpoint
// age. Both also export per-message-type RPC metrics from the serving
// loop (side="server"). -slow-op arms the frontend/replica slow-op log:
// statements at or above the threshold log a per-stage breakdown.
//
// A third role, frontend, runs an embedded full deployment and serves
// SQL over HTTP (POST /query) plus the frontend-side stats — the SAL's
// write pipeline (windows sealed and seal reasons, apply lag and
// backlog per slice, backpressure stalls, commit/apply waits, frontier
// watchers) and per-shard buffer pool
// counters (including StaleRefetches). -replicas attaches embedded read
// replicas, each serving read-only SQL at /replica/<n>/query and its
// stream stats (visible LSN, lag records/bytes, pushed frames) at
// /replica/<n>/stats:
//
//	taurus-server -role frontend -listen :7200 -stats-addr :7201 -data-dir /var/lib/taurus/fe -replicas 2
//
// A fourth role, replica, is the distributed form of the same read
// tier: it attaches to storage servers over TCP (-log-stores and
// -page-stores take comma-separated host:port lists that must match the
// master's ordering) and serves read-only SQL on POST /query with its
// lag stats on GET /stats. The replica listens on -advertise (required)
// for the cluster protocol and subscribes to the Log Stores' push
// streams: batches arrive as they commit, -refresh-interval only paces
// the idle tick and the stream watchdog. Its visible LSN moves only
// while the writer's SAL relays its applied frontier to those Log
// Stores, which a SAL does while AddFrontierWatch has armed it. No
// product process writes to standalone Log Stores yet (the frontend
// role runs embedded ones), so this role has no writer to follow:
//
//	taurus-server -role replica -listen :7300 -advertise :7310 \
//	  -log-stores :7100,:7101,:7102 -page-stores :7000,:7001,:7002,:7003 \
//	  -pages-per-slice 655360 -refresh-interval 25ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"taurus"
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
)

func main() {
	listen := flag.String("listen", ":7000", "address to listen on")
	role := flag.String("role", "pagestore", "pagestore, logstore, or frontend")
	name := flag.String("name", "", "node name (defaults to the listen address)")
	ndpWorkers := flag.Int("ndp-workers", 4, "NDP worker threads (pagestore)")
	ndpQueue := flag.Int("ndp-queue", 1024, "NDP admission queue depth (pagestore)")
	dataDir := flag.String("data-dir", "", "durable directory: segmented log (logstore) or slice checkpoints (pagestore); empty = in-memory")
	flushInterval := flag.Duration("flush-interval", 0, "group-commit window (logstore; 0 = default 2ms)")
	segmentBytes := flag.Int64("segment-bytes", 0, "log segment rotation size (logstore; 0 = default 16MB)")
	ckptInterval := flag.Duration("checkpoint-interval", time.Minute, "slice checkpoint cadence (pagestore with -data-dir)")
	statsAddr := flag.String("stats-addr", "", "HTTP address for GET /stats (empty = disabled)")
	replicas := flag.Int("replicas", 0, "embedded read replicas served at /replica/<n>/query (frontend)")
	logStores := flag.String("log-stores", "", "comma-separated Log Store addresses (replica)")
	pageStores := flag.String("page-stores", "", "comma-separated Page Store addresses, master order (replica)")
	tenant := flag.Uint("tenant", 1, "tenant id on the storage services (replica)")
	pagesPerSlice := flag.Uint64("pages-per-slice", 0, "slice size in pages, must match the master (replica; 0 = default)")
	replication := flag.Int("replication-factor", 3, "slice replication factor, must match the master (replica)")
	refreshInterval := flag.Duration("refresh-interval", 0, "idle tick and stream watchdog unit (replica; 0 = default 25ms)")
	poolPages := flag.Int("pool-pages", 0, "buffer pool pages (replica; 0 = default)")
	advertise := flag.String("advertise", "", "cluster address this replica listens on for pushed log batches; Log Stores must be able to dial it (replica; required)")
	slowOp := flag.Duration("slow-op", 0, "log statements at or above this duration with a per-stage breakdown (frontend/replica; 0 = off)")
	traceSample := flag.Float64("trace-sample", 0, "probability a statement opens a distributed trace (frontend/replica; 0 = off, forced traces still work)")
	scanPar := flag.Int("scan-parallelism", 0, "concurrent slice partitions per NDP scan (frontend/replica; 0 = GOMAXPROCS)")
	peers := flag.String("peers", "", "comma-separated role=addr cluster peers the frontend heartbeats over TCP and folds into GET /cluster/health (frontend)")
	heartbeatInterval := flag.Duration("heartbeat-interval", 0, "failure-detector ping cadence (frontend; 0 = default 1s, negative disables)")
	suspectThreshold := flag.Duration("suspect-threshold", 0, "silence after which a peer is Suspect; Dead at twice this (frontend; 0 = default 5s)")
	flag.Parse()

	if *name == "" {
		*name = *listen
	}
	var handler cluster.Handler
	var stats func() any
	var mon *health.Monitor
	reg := obs.NewRegistry()
	// Every role collects server-side spans for propagated trace contexts
	// and keeps a flight recorder, served at /trace/<id>, /traces, and
	// /events on -stats-addr. Sampling is decided at the frontend root;
	// storage servers record whenever the arriving frame is sampled.
	tracer := obs.NewTracer(*name, *traceSample, 0)
	events := obs.NewEventRing(0)
	switch *role {
	case "pagestore":
		opts := []pagestore.Option{
			pagestore.WithResourceControl(pagestore.NewResourceControl(*ndpWorkers, *ndpQueue)),
			pagestore.WithMetrics(reg),
			pagestore.WithTracer(tracer), pagestore.WithEvents(events),
		}
		if *dataDir != "" {
			cs, err := pstore.Open(pstore.Options{Dir: *dataDir})
			if err != nil {
				log.Fatal(err)
			}
			opts = append(opts, pagestore.WithCheckpoints(cs))
		}
		ps := pagestore.New(*name, opts...)
		if *dataDir != "" {
			rst, err := ps.Restore()
			if err != nil {
				log.Fatal(err)
			}
			if rst.Slices > 0 || rst.Corrupt > 0 {
				log.Printf("pagestore %q restored %d slices (%d pages) from checkpoints, %d corrupt files skipped (min applied LSN %d)",
					*name, rst.Slices, rst.Pages, rst.Corrupt, rst.MinAppliedLSN)
			}
			if *ckptInterval > 0 {
				go func() {
					for range time.Tick(*ckptInterval) {
						st, err := ps.Checkpoint()
						if err != nil {
							log.Printf("pagestore %q checkpoint: %v", *name, err)
							continue
						}
						if st.SlicesWritten > 0 {
							log.Printf("pagestore %q checkpointed %d slices (%d pages, %d bytes), persisted LSN %d",
								*name, st.SlicesWritten, st.Pages, st.Bytes, st.PersistedLSN)
						}
					}
				}()
			}
		}
		mon = health.NewMonitor(*name, "pagestore",
			health.MonitorOptions{Events: events})
		ps.RegisterHealth(mon, *ckptInterval)
		ps.SetHealth(mon)
		mon.StartLoop(time.Second)
		handler = ps
		stats = func() any { return ps.NodeStats() }
	case "logstore":
		var ls *logstore.Store
		if *dataDir == "" {
			ls = logstore.New(*name)
		} else {
			var opts []logstore.Option
			if *flushInterval > 0 {
				opts = append(opts, logstore.WithFlushInterval(*flushInterval))
			}
			if *segmentBytes > 0 {
				opts = append(opts, logstore.WithSegmentBytes(*segmentBytes))
			}
			var err error
			ls, err = logstore.Open(*name, *dataDir, opts...)
			if err != nil {
				log.Fatal(err)
			}
			if ri := ls.Recovery(); ri.Entries > 0 || ri.TornEntry {
				log.Printf("logstore %q recovered %d entries from %d segments (torn tail: %v, durable LSN %d)",
					*name, ri.Entries, ri.Segments, ri.TornEntry, ls.DurableLSN())
			}
		}
		ls.RegisterMetrics(reg)
		ls.SetTracer(tracer)
		ls.SetEvents(events)
		// Arm the push hub: subscribers (replicas, by their -advertise
		// address) register a dialable address as their node name,
		// and the store pushes log batches to it over this client.
		pc := cluster.NewTCPClient()
		pc.Metrics = cluster.NewRPCMetrics(reg, "client")
		pc.Tracer = tracer
		ls.SetPushTransport(pc)
		mon = health.NewMonitor(*name, "logstore",
			health.MonitorOptions{Events: events})
		ls.RegisterHealth(mon)
		ls.SetHealth(mon)
		mon.StartLoop(time.Second)
		handler = ls
		stats = func() any { return ls.NodeStats() }
	case "frontend":
		runFrontend(*listen, *statsAddr, frontendOptions{
			dataDir: *dataDir, ckptInterval: *ckptInterval,
			replicas: *replicas, slowOp: *slowOp, traceSample: *traceSample, scanPar: *scanPar,
			peers: parsePeers(*peers), heartbeat: *heartbeatInterval, suspect: *suspectThreshold,
		})
		return
	case "replica":
		runReplica(*listen, *statsAddr, replicaOptions{
			name:      *name,
			logStores: splitAddrs(*logStores), pageStores: splitAddrs(*pageStores),
			tenant: uint32(*tenant), pagesPerSlice: *pagesPerSlice,
			replicationFactor: *replication, refreshInterval: *refreshInterval,
			poolPages: *poolPages, slowOp: *slowOp, traceSample: *traceSample, scanPar: *scanPar,
			advertise: *advertise,
		})
		return
	default:
		log.Fatalf("unknown role %q", *role)
	}
	if *statsAddr != "" {
		serveStats(*statsAddr, newStatsMux(jsonHandler(stats), reg, tracer.Spans, tracer.RecentTraces, events, mon))
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s %q listening on %s", *role, *name, l.Addr())
	if err := cluster.ServeMetrics(l, handler, cluster.NewRPCMetrics(reg, "server")); err != nil {
		log.Fatal(err)
	}
}

// newStatsMux builds the observability mux every role serves on its
// -stats-addr: role-specific JSON /stats, Prometheus /metrics, the trace
// endpoints (GET /trace/<hex-id>, GET /traces?recent=N), the flight
// recorder (GET /events, cursored with ?since=<seq>), the health
// endpoints (GET /healthz liveness, GET /ready readiness, GET /health
// full check report), and the net/http/pprof profile endpoints
// (registered explicitly — these muxes are not http.DefaultServeMux).
func newStatsMux(stats http.HandlerFunc, reg *obs.Registry, spans func(uint64) []obs.Span, recent func(int) []uint64, events *obs.EventRing, mon *health.Monitor) *http.ServeMux {
	mux := http.NewServeMux()
	if stats != nil {
		mux.HandleFunc("/stats", stats)
	}
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	if mon != nil {
		mux.Handle("/healthz", mon.HealthzHandler())
		mux.Handle("/ready", mon.ReadyHandler())
		mux.Handle("/health", mon.ReportHandler())
	}
	if spans != nil {
		mux.Handle("/trace/", obs.TraceHandler(spans))
	}
	if recent != nil {
		mux.Handle("/traces", obs.TracesHandler(recent))
	}
	if events != nil {
		mux.Handle("/events", events.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveStats serves an observability mux on its own listener.
func serveStats(addr string, mux *http.ServeMux) {
	go func() {
		log.Printf("stats on http://%s/stats (also /metrics, /debug/pprof/)", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("stats endpoint: %v", err)
		}
	}()
}

// splitAddrs parses a comma-separated address list.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// clusterPeer is one -peers entry: a dialable cluster address plus the
// role label shown in /cluster/health.
type clusterPeer struct {
	role string
	addr string
}

// parsePeers parses -peers: comma-separated entries, each "role=addr"
// or a bare "addr" (role defaults to "peer"). The address doubles as
// the peer's name — it is what the pinger dials.
func parsePeers(s string) []clusterPeer {
	var out []clusterPeer
	for _, part := range splitAddrs(s) {
		role, addr, ok := strings.Cut(part, "=")
		if !ok {
			out = append(out, clusterPeer{role: "peer", addr: part})
			continue
		}
		out = append(out, clusterPeer{role: strings.TrimSpace(role), addr: strings.TrimSpace(addr)})
	}
	return out
}

// frontendStats is the /stats payload of a frontend node: the SAL's
// group-commit pipeline counters (including frontier watchers and
// frontier relays), per-shard buffer pool counters
// (including StaleRefetches), and the embedded storage nodes' states.
type frontendStats struct {
	WritePath  sal.PipelineStats
	BufferPool []buffer.ShardStats
	LogStores  []logstore.NodeStats
	PageStores []pagestore.StatsSnapshot
	// PageStoreNodes carries each Page Store's node view — applied/
	// persisted LSNs, NDP queue depth, descriptor-cache hit/miss — so
	// scan routing imbalance is visible from one endpoint.
	PageStoreNodes []pagestore.NodeStats
	// ScanRouting snapshots the NDP scan read router: per-replica
	// in-flight, EWMA latency, and routed/retried counters.
	ScanRouting sal.RouterStats
	// SlowOpsFired counts statements the slow-op log fired on (also
	// exported as taurus_slow_ops_fired_total).
	SlowOpsFired uint64
}

// replicaStats is the /stats payload of a read replica (embedded or
// standalone): the stream-following state (visible LSN, lag
// records/bytes, pushed frames, pages invalidated) plus its own buffer
// pool counters.
type replicaStats struct {
	Replica    replica.Stats
	BufferPool []buffer.ShardStats
	// ScanRouting snapshots the replica's NDP scan read router.
	ScanRouting  sal.RouterStats
	SlowOpsFired uint64
}

// queryHandler serves one frontend's POST /query. With a non-nil
// execTraced, a request carrying an X-Taurus-Trace header (any value)
// forces a distributed trace and the response echoes the hex trace ID in
// the same header — fetch the assembled tree from GET /trace/<id>.
func queryHandler(exec func(string) (*taurus.Result, error),
	execTraced func(string) (*taurus.Result, uint64, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a SQL statement", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var res *taurus.Result
		if execTraced != nil && r.Header.Get("X-Taurus-Trace") != "" {
			var id uint64
			res, id, err = execTraced(string(body))
			if id != 0 {
				w.Header().Set("X-Taurus-Trace", fmt.Sprintf("%x", id))
			}
		} else {
			res, err = exec(string(body))
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(res); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func jsonHandler(payload func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// frontendOptions configures runFrontend beyond its listen addresses.
type frontendOptions struct {
	dataDir      string
	ckptInterval time.Duration
	replicas     int
	slowOp       time.Duration
	traceSample  float64
	scanPar      int
	// peers are external cluster nodes (standalone storage servers,
	// distributed replicas) the frontend heartbeats over TCP; their
	// Alive/Suspect/Dead states are folded into GET /cluster/health
	// next to the embedded deployment's own failure detector.
	peers     []clusterPeer
	heartbeat time.Duration
	suspect   time.Duration
}

// runFrontend serves an embedded Taurus deployment over HTTP: POST
// /query executes one SQL statement (text/plain body, JSON result), and
// GET /stats on -stats-addr (or, if empty, the main listener) reports
// the write-pipeline / buffer-pool / storage-node counters. With
// -replicas n, n embedded read replicas attach to the same storage
// cluster and serve /replica/<i>/query and /replica/<i>/stats.
func runFrontend(listen, statsAddr string, opts frontendOptions) {
	cfg := taurus.Config{DataDir: opts.dataDir, SlowOpThreshold: opts.slowOp,
		TraceSampleRate: opts.traceSample, ScanParallelism: opts.scanPar,
		HeartbeatInterval: opts.heartbeat, SuspectThreshold: opts.suspect}
	if opts.dataDir != "" && opts.ckptInterval > 0 {
		cfg.CheckpointInterval = opts.ckptInterval
	}
	db, err := taurus.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	view := db.ClusterHealth
	if len(opts.peers) > 0 && opts.heartbeat >= 0 {
		// External peers get their own detector and TCP pinger; the
		// embedded fleet keeps its in-process one. Both record into the
		// same event ring and are folded into one cluster view.
		// A negative -heartbeat-interval disables heartbeating here just
		// as it does for the embedded fleet.
		ext := health.NewDetector(opts.heartbeat, opts.suspect, db.EventRing())
		for _, p := range opts.peers {
			ext.Track(p.addr, p.role)
		}
		hc := cluster.NewTCPClient()
		hc.Metrics = cluster.NewRPCMetrics(db.Metrics(), "client")
		// Bound every health RPC: a peer that black-holes traffic must
		// turn into a failed ping (and growing silence), not a forever-
		// blocked call holding a pinger goroutine.
		hc.DialTimeout = ext.SuspectThreshold()
		hc.CallTimeout = ext.SuspectThreshold()
		go cluster.RunHealthPinger(hc, ext, "frontend", make(chan struct{}), cluster.PingerOptions{})
		view = func() health.ClusterView {
			v := db.ClusterHealth()
			v.Peers = append(v.Peers, ext.Snapshot()...)
			return v
		}
	}
	mux, err := frontendMux(db, opts.replicas, opts.slowOp, opts.scanPar, view)
	if err != nil {
		log.Fatal(err)
	}
	if statsAddr != "" && statsAddr != listen {
		sm := newStatsMux(frontendStatsHandler(db), db.Metrics(),
			db.TraceSpans, db.RecentTraces, db.EventRing(), db.Health())
		sm.Handle("/cluster/health", health.ClusterHandler(view))
		serveStats(statsAddr, sm)
	}
	log.Printf("frontend listening on %s (POST /query, GET /stats, GET /metrics, GET /trace/<id>, GET /events, GET /cluster/health)", listen)
	if err := http.ListenAndServe(listen, mux); err != nil {
		log.Fatal(err)
	}
}

// frontendStatsHandler renders the frontend's JSON /stats payload.
func frontendStatsHandler(db *taurus.DB) http.HandlerFunc {
	return jsonHandler(func() any {
		return frontendStats{
			WritePath:      db.WritePathStats(),
			BufferPool:     db.BufferPoolStats(),
			LogStores:      db.LogStoreStats(),
			PageStores:     db.PageStoreStats(),
			PageStoreNodes: db.PageStoreNodes(),
			ScanRouting:    db.ScanRouting(),
			SlowOpsFired:   db.SlowOpsFired(),
		}
	})
}

// frontendMux assembles the frontend's full HTTP surface — /query,
// /stats, /metrics, /debug/pprof/, the health endpoints (/healthz,
// /ready, /health, /cluster/health), and per-replica /replica/<i>/
// {query,stats,metrics,health} — factored out of runFrontend so tests
// can drive it in-process. Each replica serves its own metrics
// registry; the embedded storage nodes' series live in the master's.
// view supplies /cluster/health (nil = the embedded fleet only).
func frontendMux(db *taurus.DB, replicas int, slowOp time.Duration, scanPar int, view func() health.ClusterView) (*http.ServeMux, error) {
	mux := newStatsMux(frontendStatsHandler(db), db.Metrics(),
		db.TraceSpans, db.RecentTraces, db.EventRing(), db.Health())
	if view == nil {
		view = db.ClusterHealth
	}
	mux.Handle("/cluster/health", health.ClusterHandler(view))
	mux.HandleFunc("/query", queryHandler(db.Exec, db.ExecTraced))
	for i := 1; i <= replicas; i++ {
		rep, err := taurus.OpenReplica(taurus.Config{Master: db, SlowOpThreshold: slowOp,
			TraceSampleRate: db.Tracer().Rate(), ScanParallelism: scanPar})
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		mux.HandleFunc(fmt.Sprintf("/replica/%d/query", i), queryHandler(rep.Exec, rep.ExecTraced))
		mux.HandleFunc(fmt.Sprintf("/replica/%d/stats", i), jsonHandler(func() any {
			return replicaStats{Replica: rep.ReplicaStats(), BufferPool: rep.BufferPoolStats(),
				ScanRouting: rep.ScanRouting(), SlowOpsFired: rep.SlowOpsFired()}
		}))
		mux.Handle(fmt.Sprintf("/replica/%d/metrics", i), rep.Metrics().Handler())
		mux.Handle(fmt.Sprintf("/replica/%d/trace/", i), obs.TraceHandler(rep.TraceSpans))
		mux.Handle(fmt.Sprintf("/replica/%d/traces", i), obs.TracesHandler(rep.RecentTraces))
		mux.Handle(fmt.Sprintf("/replica/%d/events", i), rep.EventRing().Handler())
		mux.Handle(fmt.Sprintf("/replica/%d/healthz", i), rep.Health().HealthzHandler())
		mux.Handle(fmt.Sprintf("/replica/%d/ready", i), rep.Health().ReadyHandler())
		mux.Handle(fmt.Sprintf("/replica/%d/health", i), rep.Health().ReportHandler())
		log.Printf("read replica %d on /replica/%d/query", i, i)
	}
	return mux, nil
}

// replicaOptions configures a standalone TCP-attached read replica.
type replicaOptions struct {
	name              string
	logStores         []string
	pageStores        []string
	tenant            uint32
	pagesPerSlice     uint64
	replicationFactor int
	refreshInterval   time.Duration
	poolPages         int
	slowOp            time.Duration
	traceSample       float64
	advertise         string
	scanPar           int
}

// runReplica serves a standalone read replica attached to storage
// servers over TCP. It listens on -advertise for the cluster protocol,
// subscribes to the Log Stores' push streams, and receives log batches
// as they commit. The catalog bootstraps from the full log, streamed
// from LSN 0, so the Log Stores must still retain the DDL records (i.e.
// log GC must not have truncated them).
func runReplica(listen, statsAddr string, opts replicaOptions) {
	if len(opts.logStores) == 0 || len(opts.pageStores) == 0 {
		log.Fatal("replica: -log-stores and -page-stores required")
	}
	if opts.advertise == "" {
		log.Fatal("replica: -advertise required (the address the Log Stores push log batches to)")
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(opts.name, opts.traceSample, 0)
	events := obs.NewEventRing(0)
	tc := cluster.NewTCPClient()
	tc.Metrics = cluster.NewRPCMetrics(reg, "client")
	tc.Tracer = tracer
	rep, err := replica.New(replica.Config{
		Transport: tc, Tenant: opts.tenant,
		LogStores: opts.logStores, PageStores: opts.pageStores,
		ReplicationFactor: opts.replicationFactor,
		PagesPerSlice:     opts.pagesPerSlice,
		Plugin:            pagestore.PluginInnoDB,
		RefreshInterval:   opts.refreshInterval,
		Metrics:           reg,
		Name:              opts.name,
		Events:            events,
		Node:              opts.advertise,
	})
	if err != nil {
		log.Fatal(err)
	}
	mon := health.NewMonitor(opts.name, "replica",
		health.MonitorOptions{Events: events})
	rep.RegisterHealth(mon)
	rep.SetHealth(mon)
	cl, err := net.Listen("tcp", opts.advertise)
	if err != nil {
		log.Fatalf("replica: cluster listener on %s: %v", opts.advertise, err)
	}
	go func() {
		if err := cluster.ServeMetrics(cl, rep, cluster.NewRPCMetrics(reg, "server")); err != nil {
			log.Printf("replica: cluster listener: %v", err)
		}
	}()
	log.Printf("replica accepting pushed log batches on %s", opts.advertise)
	eng, err := engine.New(engine.Config{ReadView: rep, PoolPages: opts.poolPages,
		ScanParallelism: opts.scanPar, Tracer: tracer, Events: events})
	if err != nil {
		log.Fatal(err)
	}
	eng.RegisterMetrics(reg, opts.name)
	eng.Pool().RegisterMetrics(reg, opts.name)
	session := sql.NewSession(eng)
	session.ReadOnly = true
	session.Slow = obs.NewSlowOpLog(opts.slowOp, nil)
	session.Tracer = tracer
	reg.CounterFunc("taurus_slow_ops_fired_total",
		"Statements the slow-op log fired on (met or exceeded its threshold).",
		func() float64 { return float64(session.Slow.Fired()) })
	rep.Bind(eng, func(table string) {
		if _, err := session.Cat.Analyze(table); err != nil {
			log.Printf("replica: analyzing %s: %v", table, err)
		}
	})
	if err := rep.Start(0, 0); err != nil {
		log.Fatalf("replica: subscribe: %v", err)
	}
	log.Printf("replica subscribed from LSN 0; tables attach as the log streams in")
	mon.StartLoop(time.Second)
	stats := jsonHandler(func() any {
		return replicaStats{Replica: rep.Stats(), BufferPool: eng.Pool().ShardStatsSnapshot(),
			ScanRouting: rep.RouterStats(), SlowOpsFired: session.Slow.Fired()}
	})
	mux := newStatsMux(stats, reg, tracer.Spans, tracer.RecentTraces, events, mon)
	mux.HandleFunc("/query", queryHandler(func(q string) (*taurus.Result, error) {
		return session.Exec(q)
	}, func(q string) (*taurus.Result, uint64, error) {
		return session.ExecTraced(q, true)
	}))
	if statsAddr != "" && statsAddr != listen {
		serveStats(statsAddr, newStatsMux(stats, reg, tracer.Spans, tracer.RecentTraces, events, mon))
	}
	log.Printf("replica listening on %s (POST /query read-only, GET /stats, GET /metrics)", listen)
	if err := http.ListenAndServe(listen, mux); err != nil {
		log.Fatal(err)
	}
}
