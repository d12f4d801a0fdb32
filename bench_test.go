package taurus_test

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (§VII). Each benchmark regenerates its figure's rows and
// reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation. The
// same experiments are runnable interactively via cmd/taurus-bench,
// which prints the full tables.

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taurus"
	"taurus/internal/bench"
	"taurus/internal/buffer"
	"taurus/internal/core"
	"taurus/internal/core/ir"
	"taurus/internal/expr"
	"taurus/internal/page"
	"taurus/internal/pagestore"
	"taurus/internal/plog"
	"taurus/internal/tpch"
	"taurus/internal/types"
)

var benchFixture *bench.Fixture

func fixture(b *testing.B) *bench.Fixture {
	b.Helper()
	if benchFixture == nil {
		f, err := bench.NewFixture(0.005)
		if err != nil {
			b.Fatal(err)
		}
		benchFixture = f
	}
	return benchFixture
}

// BenchmarkFig5NetworkReduction regenerates Fig. 5: network read
// reduction with NDP on the Listing 5 micro-benchmark.
func BenchmarkFig5NetworkReduction(b *testing.B) {
	f := fixture(b)
	var rows []bench.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = f.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range rows {
		sum += r.ReductionPct
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-net-reduction-%")
	if b.N == 1 {
		bench.PrintFig5(os.Stderr, rows)
	}
}

// BenchmarkFig6RuntimePQNDP regenerates Fig. 6: run-time reduction from
// PQ and PQ+NDP at DOP 32 on the simulated cluster clock.
func BenchmarkFig6RuntimePQNDP(b *testing.B) {
	f := fixture(b)
	var rows []bench.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = f.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	var pqOnly, pqNDP float64
	for _, r := range rows {
		pqOnly += r.PQOnlyPct
		pqNDP += r.PQandNDPPct
	}
	b.ReportMetric(pqOnly/float64(len(rows)), "mean-PQonly-%")
	b.ReportMetric(pqNDP/float64(len(rows)), "mean-PQ+NDP-%")
	if b.N == 1 {
		bench.PrintFig6(os.Stderr, rows)
	}
}

// BenchmarkFig7TPCHReduction regenerates Fig. 7: CPU and network
// reduction across the 22 TPC-H queries (paper headline: 63% data, 50%
// CPU, 18/22 queries benefit).
func BenchmarkFig7TPCHReduction(b *testing.B) {
	f := fixture(b)
	var res *bench.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = f.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalNetPct, "total-net-reduction-%")
	b.ReportMetric(res.TotalCPUPct, "total-cpu-reduction-%")
	b.ReportMetric(float64(res.QueriesBenefit), "queries-benefiting")
	if b.N == 1 {
		bench.PrintFig7(os.Stderr, res)
	}
}

// BenchmarkFig8TPCHRuntime regenerates Fig. 8: per-query run-time
// reduction with NDP (simulated serial clock; Q4 regression included).
func BenchmarkFig8TPCHRuntime(b *testing.B) {
	f := fixture(b)
	var res *bench.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = f.Fig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalPct, "total-runtime-reduction-%")
	b.ReportMetric(float64(res.CountOver60), "queries-over-60pct")
	if b.N == 1 {
		bench.PrintFig8(os.Stderr, res)
	}
}

// BenchmarkFig9PQGains regenerates Fig. 9: further run-time reduction
// from PQ (DOP 16) on the seven parallelizable queries.
func BenchmarkFig9PQGains(b *testing.B) {
	f := fixture(b)
	var rows []bench.Fig9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = f.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range rows {
		sum += r.ReductionPct
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-PQ-reduction-%")
	if b.N == 1 {
		bench.PrintFig9(os.Stderr, rows)
	}
}

// BenchmarkQ4BufferPool regenerates the §VII-D buffer-pool experiment:
// lineitem pages resident after Q1–Q3 with NDP off vs on.
func BenchmarkQ4BufferPool(b *testing.B) {
	f := fixture(b)
	var noNDP, withNDP int
	for i := 0; i < b.N; i++ {
		var err error
		noNDP, withNDP, err = f.Q4BufferPool()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(noNDP), "lineitem-pages-no-NDP")
	b.ReportMetric(float64(withNDP), "lineitem-pages-NDP")
}

// BenchmarkDescriptorCache is the §IV-D1 ablation. The paper's
// descriptor decode + LLVM conversion cost milliseconds, so caching gave
// up to 50% on some benchmarks; this reproduction interprets its IR, so
// a miss costs only decoding the descriptor and its programs. The
// ablation is reported at the operation level: serving Q6's descriptor
// from the cache (Hit) vs building its processor from bytes (Miss).
func BenchmarkDescriptorCache(b *testing.B) {
	desc := q6Descriptor(b, fixture(b))
	b.Run("Hit", func(b *testing.B) {
		c := pagestore.NewDescriptorCache(16)
		if _, err := c.Get(desc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(desc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewProcessor(desc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// q6Descriptor builds the encoded NDP descriptor Q6's scan ships:
// the four-conjunct predicate as IR, a two-column projection, and the
// decomposed SUM aggregate.
func q6Descriptor(b *testing.B, f *bench.Fixture) []byte {
	b.Helper()
	idx := f.DB.Lineitem.Primary
	pred := expr.AndAll(
		expr.GE(expr.Col(tpch.LShipdate, "l_shipdate"), expr.Const(types.DateFromYMD(1994, 1, 1))),
		expr.LT(expr.Col(tpch.LShipdate, "l_shipdate"), expr.Const(types.DateFromYMD(1995, 1, 1))),
		expr.Between(expr.Col(tpch.LDiscount, "l_discount"),
			expr.Const(types.NewDecimal(5)), expr.Const(types.NewDecimal(7))),
		expr.LT(expr.Col(tpch.LQuantity, "l_quantity"), expr.Const(types.NewDecimal(2400))),
	)
	prog, err := ir.Compile(pred, idx.Schema.Len())
	if err != nil {
		b.Fatal(err)
	}
	argProg, err := ir.Compile(expr.Mul(expr.Col(0, "p"), expr.Col(1, "d")), 2)
	if err != nil {
		b.Fatal(err)
	}
	d := &core.Descriptor{
		IndexID:      idx.ID,
		Cols:         make([]types.Kind, idx.Schema.Len()),
		FixedLens:    make([]uint16, idx.Schema.Len()),
		Projection:   []uint16{tpch.LExtendedprice, tpch.LDiscount},
		Predicate:    prog.Encode(),
		Aggs:         []core.AggSpec{{Fn: core.AggSum, ArgCol: -1, ArgIR: argProg.Encode()}},
		LowWatermark: 1 << 40,
	}
	for i, c := range idx.Schema.Cols {
		d.Cols[i] = c.Kind
		d.FixedLens[i] = uint16(c.FixedLen)
	}
	return d.Encode()
}

// BenchmarkNDPScanVsRegular is the core data-path comparison on real
// wall-clock time: a filtered scan through the NDP path vs the regular
// per-page path, cold pool.
func BenchmarkNDPScanVsRegular(b *testing.B) {
	f := fixture(b)
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		ndp  bool
	}{{"Regular", false}, {"NDP", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var bytes uint64
			for i := 0; i < b.N; i++ {
				f.DB.Eng.Pool().Clear()
				m, err := f.RunQuery(q, mode.ndp)
				if err != nil {
					b.Fatal(err)
				}
				bytes = m.NetBytes
			}
			b.ReportMetric(float64(bytes), "net-bytes/query")
		})
	}
}

// BenchmarkDurableAppend measures acknowledged durable appends per
// second through the persistent log: group commit (one fsync shared by
// every appender in the flush window) against the fsync-per-append
// baseline. Run with -cpu to vary the appender count; the gap widens
// with concurrency, which is the point of group commit.
func BenchmarkDurableAppend(b *testing.B) {
	payload := make([]byte, 256)
	for _, mode := range []struct {
		name string
		opts func() plog.Options
	}{
		{"GroupCommit", func() plog.Options { return plog.Options{FlushInterval: 500 * time.Microsecond} }},
		{"SyncPerAppend", func() plog.Options { return plog.Options{SyncEveryAppend: true} }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := mode.opts()
			opts.Dir = b.TempDir()
			l, err := plog.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var mark atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(mark.Add(1), payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := l.Snapshot()
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "fsyncs/append")
			}
		})
	}
}

// BenchmarkShardedBufferPool measures buffer pool Get throughput under
// concurrent scans (run with -cpu 1,4,8): a hot working set over a
// sharded pool, where the old single-mutex design serialized every
// lookup.
func BenchmarkShardedBufferPool(b *testing.B) {
	const capacity = 8192
	const working = 6144
	pool := buffer.New(capacity, 64)
	fetch := func(id uint64) (*page.Page, error) { return page.New(id, 1, 0), nil }
	for i := uint64(1); i <= working; i++ {
		if _, err := pool.Get(i, fetch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pool.Shards()), "shards")
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := seq.Add(0x9E3779B9)
		for pb.Next() {
			rng = rng*6364136223846793005 + 1442695040888963407
			id := rng%working + 1
			if _, err := pool.Get(id, fetch); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCheckpointRecovery compares the two recovery paths of a
// durable deployment at the public API: Open over a DataDir whose log
// holds the whole workload (full replay) against one whose Page Stores
// checkpointed — and whose log was truncated to the tail — just before
// the crash.
func BenchmarkCheckpointRecovery(b *testing.B) {
	const rows = 5000
	prepare := func(b *testing.B, checkpoint bool) (string, taurus.Config) {
		b.Helper()
		dir := b.TempDir()
		cfg := taurus.Config{DataDir: dir, PagesPerSlice: 64, LogFlushInterval: 200 * time.Microsecond}
		db, err := taurus.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
			salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		const chunk = 500
		for at := 0; at < rows; at += chunk {
			sb.Reset()
			sb.WriteString("INSERT INTO worker VALUES ")
			for i := 0; i < chunk && at+i < rows; i++ {
				if i > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, "(%d, %d, DATE '2012-01-15', 3100.00, 'w%d')", at+i, 20+(at+i)%45, at+i)
			}
			if _, err := db.Exec(sb.String()); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if _, err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if _, err := db.TruncateLogs(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return dir, cfg
	}
	for _, mode := range []struct {
		name       string
		checkpoint bool
	}{{"FullReplay", false}, {"CheckpointTail", true}} {
		b.Run(mode.name, func(b *testing.B) {
			_, cfg := prepare(b, mode.checkpoint)
			var replayed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := taurus.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				replayed = db.RecoverySummary().TailRecords
				b.StopTimer()
				if res, err := db.Exec("SELECT COUNT(*) FROM worker"); err != nil || res.Rows[0][0].I != rows {
					b.Fatalf("recovered count: %v (%v)", res, err)
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(replayed), "tail-records-replayed")
		})
	}
}

// BenchmarkCrashRecovery measures full-database recovery: Open over a
// DataDir whose log holds an acknowledged workload, replaying records
// into the Page Stores and rebuilding the data dictionary.
func BenchmarkCrashRecovery(b *testing.B) {
	for _, rows := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			dir := b.TempDir()
			cfg := taurus.Config{DataDir: dir, PagesPerSlice: 64, LogFlushInterval: 200 * time.Microsecond}
			db, err := taurus.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE worker (id BIGINT, age INT, join_date DATE,
				salary DECIMAL(15,2), name VARCHAR, PRIMARY KEY(id))`); err != nil {
				b.Fatal(err)
			}
			var sb strings.Builder
			const chunk = 500
			for at := 0; at < rows; at += chunk {
				sb.Reset()
				sb.WriteString("INSERT INTO worker VALUES ")
				for i := 0; i < chunk && at+i < rows; i++ {
					if i > 0 {
						sb.WriteString(",")
					}
					fmt.Fprintf(&sb, "(%d, %d, DATE '2012-01-15', 3100.00, 'w%d')", at+i, 20+(at+i)%45, at+i)
				}
				if _, err := db.Exec(sb.String()); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := taurus.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				recovered := db.RecoveryStats().Records
				b.StopTimer()
				if recovered == 0 {
					b.Fatal("nothing recovered")
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(rows), "rows-recovered")
		})
	}
}
