package main

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"taurus/internal/engine"
	"taurus/internal/exec"
	"taurus/internal/sql"
	"taurus/internal/tpch"
	"taurus/internal/types"
)

// sizes are the workload dimensions. fullSizes is what measured runs use;
// smokeSizes shrinks everything so the unit test can drive each workload
// end to end in a few seconds.
type sizes struct {
	sf        float64       // TPC-H scale factor
	poolPages int           // buffer pool of the scan fleets, about a third of lineitem's leaves
	kvRows    int           // rows preloaded into oltp_mixed's kv table
	sideRows  int           // rows of the small kv table the other fleets carry for their complement phase
	warm      time.Duration // untimed warm-up before the window
	sideStmts int           // complement: serial commit+read pairs on the side table
	coldScans int           // complement: cold full scans of kv after oltp_mixed reopens
	repReads  int           // complement: point reads on the htap replica
	tick      time.Duration // htap writer pace
}

func fullSizes() sizes {
	return sizes{sf: 0.005, poolPages: 104, kvRows: 100000, sideRows: 2000,
		warm: 1500 * time.Millisecond, sideStmts: 600, coldScans: 60, repReads: 200,
		tick: 20 * time.Millisecond}
}

func smokeSizes() sizes {
	return sizes{sf: 0.001, poolPages: 96, kvRows: 2000, sideRows: 200,
		warm: 100 * time.Millisecond, sideStmts: 10, coldScans: 3, repReads: 3,
		tick: 20 * time.Millisecond}
}

// options is one run's input.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	tmpDir   string // data directories are made under it and removed at exit
	outDir   string // span dumps
	sz       sizes
}

// result is one run's output: operation counts and every metric by name.
type result struct {
	attempted int
	failed    int
	notes     []string // first few failure descriptions, for the human report
	metrics   map[string]float64
	info      []string // sample counts and tail percentiles, human report only
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one verification as an attempted operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// timing reports a series' sample count, median and the highest tail
// percentile the sample supports, for the human report.
func (r *result) timing(name string, s series) {
	p := pickTail(len(s))
	r.info = append(r.info, fmt.Sprintf("%-24s n=%-6d p50=%.3f ms  p%g=%.3f ms", name, len(s), median(s), p, quantile(s, p/100)))
}

// frontend is what a client loop needs from a database frontend. The
// product fleet fills it from *taurus.DB; the traced fleet from its own
// wiring of the same layers.
type frontend struct {
	exec func(query string) (*sql.Result, error)
	eng  *engine.Engine
}

// passQueries is the scan pass, in order. The buffer pool is not cleared
// between queries, as the paper runs its queries in sequence.
var passQueries = []string{"Q1", "Q3", "Q6", "Q12", "Q14", "Q15"}

func loadPassQueries() ([]tpch.Query, error) {
	out := make([]tpch.Query, 0, len(passQueries))
	for _, n := range passQueries {
		q, err := tpch.QueryByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// hashRows fingerprints a result set, order-sensitively: scalar results
// have one row and grouped results arrive in group-key order.
func hashRows(rows []types.Row) string {
	h := fnv.New64a()
	for _, r := range rows {
		for _, d := range r {
			fmt.Fprintf(h, "%v", d)
			h.Write([]byte{0})
		}
		h.Write([]byte{0xFF})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// passRunner runs scan passes on one frontend and keeps the counters
// only the caller of a query can see (executor stats, optimizer
// decisions).
type passRunner struct {
	fe      frontend
	tdb     *tpch.DB
	ndp     bool
	queries []tpch.Query
	golden  []string  // expected hash per query; nil skips the comparison
	rec     *recorder // nil when untraced
	cap     *capture  // nil when untraced; told which query is running
	res     *result

	passes     int
	execStats  exec.ExecStatsSnapshot
	accesses   int // table accesses planned
	ndpAccess  int // of which became NDP scans
	lastHashes []string
	lastRows   [][]types.Row
}

// run executes one pass and returns its duration. A query that errors or
// returns a wrong hash counts as failed.
func (p *passRunner) run() time.Duration {
	start := time.Now()
	hashes := make([]string, len(p.queries))
	rowsOut := make([][]types.Row, len(p.queries))
	for i, q := range p.queries {
		if p.cap != nil {
			p.cap.setQuery(q.Name)
		}
		q0 := time.Now()
		env := tpch.NewEnv(p.tdb, p.ndp)
		ctx := exec.NewCtx(p.fe.eng)
		rows, err := tpch.Run(env, ctx, q)
		if p.rec != nil {
			p.rec.add("query:"+q.Name, levelQuery, "", q0, time.Now())
		}
		p.res.attempted++
		if err != nil {
			p.res.fail("%s: %v", q.Name, err)
			continue
		}
		hashes[i] = hashRows(rows)
		rowsOut[i] = rows
		if p.golden != nil && hashes[i] != p.golden[i] {
			p.res.fail("%s (ndp=%v): hash %s, golden %s", q.Name, p.ndp, hashes[i], p.golden[i])
		}
		es := ctx.Stats.Snapshot()
		p.execStats.OperatorRows += es.OperatorRows
		p.execStats.ExprEvals += es.ExprEvals
		p.execStats.HashOps += es.HashOps
		p.execStats.SortRows += es.SortRows
		for _, rep := range env.Reports {
			p.accesses++
			if rep.Dec.NDPEnabled() {
				p.ndpAccess++
			}
		}
	}
	end := time.Now()
	if p.rec != nil {
		p.rec.add("pass", levelOp, "", start, end)
	}
	p.passes++
	p.lastHashes, p.lastRows = hashes, rowsOut
	return end.Sub(start)
}

// warmUp runs untimed passes for d, one at least.
func warmUp(p *passRunner, d time.Duration) {
	for end := time.Now().Add(d); p.passes == 0 || time.Now().Before(end); {
		p.run()
	}
}

// goldenHashes runs the pass once with NDP off at scan parallelism 1,
// the reference every timed query is compared with (NDP on ≡ off,
// parallel ≡ serial).
func goldenHashes(fe frontend, tdb *tpch.DB, queries []tpch.Query, res *result) []string {
	fe.eng.SetScanParallelism(1)
	defer fe.eng.SetScanParallelism(0)
	p := &passRunner{fe: fe, tdb: tdb, queries: queries, res: res}
	p.run()
	return p.lastHashes
}

// Side table: the small kv table every fleet without an OLTP main loop
// carries, so its complement phase can time commits and point reads.

const kvDDL = `CREATE TABLE kv (id BIGINT, v INT, pad VARCHAR, PRIMARY KEY(id))`

// padFor is the 64-byte pad of row id: reads check it byte for byte.
func padFor(id int64) string { return fmt.Sprintf("p%063d", id) }

func vFor(id int64) int64 { return id % 1000 }

// preloadKV inserts rows [0, n) in multi-row statements.
func preloadKV(fe frontend, n int) error {
	if _, err := fe.exec(kvDDL); err != nil {
		return err
	}
	const batch = 5000
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv VALUES ")
		for id := lo; id < hi; id++ {
			if id > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, '%s')", id, vFor(int64(id)), padFor(int64(id)))
		}
		if _, err := fe.exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// kvStatements are the two statement shapes of the kv table, for the
// parser probe.
var kvStatements = []string{
	fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, '%s')", 123456789, 7, padFor(123456789)),
	"SELECT id, v, pad FROM kv WHERE id = 4242",
}

func insertKV(fe frontend, id, v int64) error {
	_, err := fe.exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, '%s')", id, v, padFor(id)))
	return err
}

// readKV point-reads row id and checks it is exactly the expected row.
func readKV(fe frontend, id, wantV int64) error {
	r, err := fe.exec(fmt.Sprintf("SELECT id, v, pad FROM kv WHERE id = %d", id))
	if err != nil {
		return err
	}
	if len(r.Rows) != 1 {
		return fmt.Errorf("kv id %d: %d rows", id, len(r.Rows))
	}
	row := r.Rows[0]
	if row[0].I != id || row[1].I != wantV || row[2].S != padFor(id) {
		return fmt.Errorf("kv id %d: got %v", id, row)
	}
	return nil
}

// sidePhase is the complement phase of the fleets whose main loop has no
// OLTP statements: serial commit and point-read pairs on the side table,
// one client, after the window.
func sidePhase(fe frontend, sz sizes, res *result) (commits, reads series) {
	settle()
	for i := 0; i < sz.sideStmts; i++ {
		id := int64(sz.sideRows + i)
		t0 := time.Now()
		err := insertKV(fe, id, vFor(id))
		commits.add(time.Since(t0))
		res.check(err == nil, "side insert %d: %v", id, err)
		rid := int64(i*7919) % int64(sz.sideRows)
		t0 = time.Now()
		err = readKV(fe, rid, vFor(rid))
		reads.add(time.Since(t0))
		res.check(err == nil, "side read: %v", err)
	}
	return commits, reads
}

// statementLatencies fills the commit and point-read timings, from one
// series per client.
func statementLatencies(m map[string]float64, commits, reads []series) {
	m["commit_p50_ms"] = steady(0.5, commits...)
	m["taurus.commit_p95_ms"] = steady(0.95, commits...)
	m["read_p50_ms"] = steady(0.5, reads...)
	m["taurus.read_p95_ms"] = steady(0.95, reads...)
}

// settle collects the window's garbage before a complement phase, so
// that whether a collection cycle happens to start inside the short
// phase does not decide its tail percentiles.
func settle() { runtime.GC() }

// cpuMillis is the process's user+system CPU time so far.
func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dirBytes sums the regular files under dir; what cannot be read (a
// segment log GC just removed) counts as nothing.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
