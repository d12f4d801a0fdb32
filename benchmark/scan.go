package main

import (
	"fmt"
	"time"

	"taurus"
	"taurus/internal/tpch"
)

// scanConfig is the fleet of ndp_scan and raw_scan: in memory, slices
// small enough that lineitem spreads over all four Page Stores, and a
// pool about a third of lineitem's leaf level (as bench.NewFixture).
func scanConfig(sz sizes) taurus.Config {
	return taurus.Config{PagesPerSlice: 64, PoolPages: sz.poolPages, NDPMaxPagesLookAhead: 64}
}

func productFrontend(db *taurus.DB) frontend {
	return frontend{exec: db.Exec, eng: db.Engine()}
}

// loadedRows is the number of rows tpch.Load inserted, from the
// statistics it computed while loading.
func loadedRows(tdb *tpch.DB) float64 {
	var n int64
	for _, t := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		if st := tdb.Cat.Stats(t); st != nil {
			n += st.Rows
		}
	}
	return float64(n)
}

// runScan is ndp_scan (ndp) and raw_scan (!ndp): one client runs passes
// of the six queries for the window; commits and point reads on the side
// table follow as the complement phase.
func runScan(o options, ndp bool, res *result) error {
	db, err := taurus.Open(scanConfig(o.sz))
	if err != nil {
		return err
	}
	defer db.Close()
	fe := productFrontend(db)
	load0 := time.Now()
	tdb, err := tpch.Load(db.Engine(), o.sz.sf)
	if err != nil {
		return err
	}
	loadS := time.Since(load0).Seconds()
	if err := preloadKV(fe, o.sz.sideRows); err != nil {
		return err
	}
	queries, err := loadPassQueries()
	if err != nil {
		return err
	}
	golden := goldenHashes(fe, tdb, queries, res)
	res.metrics["setup_s"] = time.Since(processStart).Seconds()
	res.metrics["tpch.load_rows_per_s"] = loadedRows(tdb) / loadS

	warmUp(&passRunner{fe: fe, tdb: tdb, ndp: ndp, queries: queries, golden: golden, res: res}, o.sz.warm)
	p := &passRunner{fe: fe, tdb: tdb, ndp: ndp, queries: queries, golden: golden, res: res}

	window := o.window
	if o.trace {
		window /= 2 // the traced fleet gets the other half
	}
	smp := startSampler(db)
	before := takeSnap(db, db, "")
	start := time.Now()
	meter := newRateMeter(start, window)
	var passMS series
	for deadline := start.Add(window); time.Now().Before(deadline); {
		passMS.add(p.run())
		meter.observe(time.Now(), p.passes*len(queries), p.passes)
	}
	meter.finish(time.Now(), p.passes*len(queries), p.passes)
	elapsed := time.Since(start).Seconds()
	after := takeSnap(db, db, "")
	smp.finish(res.metrics)

	commits, reads := sidePhase(fe, o.sz, res)

	m := res.metrics
	m["scan_pass_p50_ms"] = steady(0.5, passMS)
	m["scan_pass_p90_ms"] = steady(0.9, passMS)
	m["scan_net_mb_per_pass"] = per(float64(after.net.BytesReceived-before.net.BytesReceived)/1e6, p.passes)
	statementLatencies(m, []series{commits}, []series{reads})
	m["stmt_per_s"] = median(meter.rates)
	m["cpu_ms_per_op"] = median(meter.cpuPerOp)
	res.timing("scan pass", passMS)
	res.timing("side commit (complement)", commits)
	res.timing("side read (complement)", reads)
	res.info = append(res.info, fmt.Sprintf("passes=%d window=%.2fs", p.passes, elapsed))

	if o.trace {
		c := opCounts{passes: p.passes, seconds: elapsed}
		layerMetricsS(m, before, after, c, 0)
		scanLayerCounts(m, p)
		if err := tracedScan(o, ndp, golden, m["scan_pass_p50_ms"], res); err != nil {
			return err
		}
	}
	m["peak_rss_mb"] = peakRSSMB()
	return nil
}

// scanLayerCounts fills the per-pass counters only the pass runner sees.
func scanLayerCounts(m map[string]float64, p *passRunner) {
	m["plan.ndp_access_frac"] = per(float64(p.ndpAccess), p.accesses)
	m["exec.operator_rows_per_pass"] = per(float64(p.execStats.OperatorRows), p.passes)
	m["exec.expr_evals_per_pass"] = per(float64(p.execStats.ExprEvals), p.passes)
	m["exec.sort_rows_per_pass"] = per(float64(p.execStats.SortRows), p.passes)
}
