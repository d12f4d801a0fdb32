// Package bench is the experiment harness: it replays every figure of
// the paper's evaluation section (§VII) against the Go reproduction and
// prints rows in the same terms the paper reports (percent reductions in
// network traffic, SQL-node CPU time, and run time).
package bench

import (
	"fmt"
	"io"
	"time"

	"taurus/internal/costmodel"
	"taurus/internal/engine"
	"taurus/internal/exec"
	"taurus/internal/pagestore"
	"taurus/internal/testutil"
	"taurus/internal/tpch"
)

// Fixture is a loaded TPC-H cluster ready for experiments.
type Fixture struct {
	Cluster *testutil.Cluster
	DB      *tpch.DB
	Model   costmodel.Model
}

// NewFixture builds the paper's small test cluster (4 Page Stores, 3-way
// replication) and loads TPC-H at the scale factor. The buffer pool is
// sized at ~20% of the database, matching the paper's 20 GB pool for
// 100 GB of data.
func NewFixture(sf float64) (*Fixture, error) {
	// Size the pool at roughly a third of the lineitem leaf level, so
	// (as with the paper's 20 GB pool over 100 GB of data) big scans
	// cannot be served from cache.
	liRows := int(6000000 * sf)
	pool := liRows / 96 / 3
	if pool < 96 {
		pool = 96
	}
	c, err := testutil.NewCluster(testutil.Options{
		PageStores: 4, ReplicationFactor: 3, PagesPerSlice: 64,
		PoolPages: pool, LookAhead: 64,
	})
	if err != nil {
		return nil, err
	}
	db, err := tpch.Load(c.Engine, sf)
	if err != nil {
		return nil, err
	}
	return &Fixture{Cluster: c, DB: db, Model: costmodel.DefaultModel()}, nil
}

// Measurement captures one query execution.
type Measurement struct {
	Query    string
	NDP      bool
	Rows     int
	Wall     time.Duration
	NetBytes uint64
	NetReqs  uint64
	// SQLCPUUnits is the weighted SQL-node work (see cpuUnits).
	SQLCPUUnits float64
	// SerialCPUUnits is the subset attributed to inherently serial
	// operators (sorts, final merges).
	SerialCPUUnits float64
	// StoreRecords is Page-Store-side NDP record processing.
	StoreRecords uint64
	// NDPPages/SkippedPages count Page Store outcomes.
	NDPPages     uint64
	SkippedPages uint64
	// Reports carries the per-access optimizer decisions.
	Reports []tpch.AccessReport
}

// cpuUnits converts measured counters into SQL-node CPU work units. The
// weights are order-of-magnitude costs of the operations in a
// tree-walking executor; they are constants of the reproduction, stated
// here and in EXPERIMENTS.md.
func cpuUnits(em engine.MetricsSnapshot, es exec.ExecStatsSnapshot) (total, serial float64) {
	scanWork := float64(em.RowsExaminedSQL)*1.0 +
		float64(em.PredEvalsSQL)*0.5 +
		float64(em.UndoResolutions)*2.0 +
		float64(em.AggMergesSQL)*0.5 +
		float64(em.RowsEmitted)*0.2
	execWork := float64(es.OperatorRows)*0.8 +
		float64(es.ExprEvals)*0.4 +
		float64(es.HashOps)*1.0
	sortWork := float64(es.SortRows) * 1.2
	return scanWork + execWork + sortWork, sortWork
}

// RunQuery executes one query and measures it. The buffer pool is left
// as-is (experiments that need a cold pool clear it first), because the
// paper runs the 22 queries "in sequence without restarting the server".
func (f *Fixture) RunQuery(q tpch.Query, ndp bool) (Measurement, error) {
	env := tpch.NewEnv(f.DB, ndp)
	ctx := exec.NewCtx(f.DB.Eng)
	em0 := f.DB.Eng.Metrics.Snapshot()
	net0 := f.Cluster.Transport.Stats.Snapshot()
	var ps0 []StoreCounters
	for _, ps := range f.Cluster.PageStores {
		ps0 = append(ps0, storeCounters(ps.Snapshot()))
	}
	start := time.Now()
	rows, err := tpch.Run(env, ctx, q)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s (ndp=%v): %w", q.Name, ndp, err)
	}
	wall := time.Since(start)
	em := f.DB.Eng.Metrics.Snapshot().Sub(em0)
	es := ctx.Stats.Snapshot()
	net := f.Cluster.Transport.Stats.Snapshot().Sub(net0)
	var storeRecs, ndpPages, skipped uint64
	for i, ps := range f.Cluster.PageStores {
		cur := storeCounters(ps.Snapshot())
		storeRecs += cur.RecordsIn - ps0[i].RecordsIn
		ndpPages += cur.Processed - ps0[i].Processed
		skipped += cur.Skipped - ps0[i].Skipped
	}
	total, serial := cpuUnits(em, es)
	return Measurement{
		Query: q.Name, NDP: ndp, Rows: len(rows), Wall: wall,
		NetBytes: net.BytesReceived, NetReqs: net.Requests,
		SQLCPUUnits: total, SerialCPUUnits: serial,
		StoreRecords: storeRecs, NDPPages: ndpPages, SkippedPages: skipped,
		Reports: env.Reports,
	}, nil
}

// StoreCounters is the per-store subset we delta.
type StoreCounters struct {
	RecordsIn, Processed, Skipped uint64
}

func storeCounters(v pagestore.StatsSnapshot) StoreCounters {
	return StoreCounters{RecordsIn: v.NDPRecordsIn, Processed: v.NDPPagesProcessed, Skipped: v.NDPPagesSkipped}
}

// Work converts a measurement into the cost model's input.
func (m Measurement) Work() costmodel.Work {
	return costmodel.Work{
		NetBytes:         float64(m.NetBytes),
		NetRequests:      float64(m.NetReqs),
		SerialCPUUnits:   m.SerialCPUUnits,
		ParallelCPUUnits: m.SQLCPUUnits - m.SerialCPUUnits,
		StoreRecords:     float64(m.StoreRecords),
	}
}

// pct formats a percentage.
func pct(v float64) string { return fmt.Sprintf("%6.1f%%", v) }

// reduction of b vs a in percent.
func reduction(a, b uint64) float64 {
	if a == 0 {
		return 0
	}
	return (1 - float64(b)/float64(a)) * 100
}

func reductionF(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return (1 - b/a) * 100
}

// fprintf writes to w ignoring errors (report printing).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
