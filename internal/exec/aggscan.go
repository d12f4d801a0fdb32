package exec

import (
	"fmt"

	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/expr"
	"taurus/internal/types"
)

// AggOutput describes how one result column of an aggregate scan is
// produced from the pushed core.AggSpec states.
type AggOutput struct {
	// Spec is the index into the pushed spec list for direct outputs.
	Spec int
	// AvgCount, when >= 0, makes this output AVG: Spec is the SUM state
	// and AvgCount the COUNT state — the paper's AVG decomposition
	// ("the sum of salary and the number of rows associated with the
	// sum—using which AVG(salary) can be computed", §III).
	AvgCount int
	// Name is the output column name.
	Name string
}

// NDPAggScan is the fused scan+aggregation operator used when the
// optimizer pushes aggregation down. It drives an engine NDP scan,
// merges partial states attached to NDP aggregate records, accumulates
// plain/base rows, and produces final rows (group-by columns followed by
// aggregate outputs).
//
// Grouped aggregation relies on the index delivering groups contiguously
// — the same requirement the optimizer enforces before pushing GROUP BY
// ("the index access chosen for T must satisfy the grouping column
// requirement", §V-C) — so it streams one group at a time.
type NDPAggScan struct {
	Opts    engine.ScanOptions // must carry NDP.Aggs (and GroupBy if grouped)
	Outputs []AggOutput
	// Having optionally filters final group rows (ordinals into the
	// output layout).
	Having *expr.Expr

	ctx     *Ctx
	results []types.Row
	pos     int
}

// Columns implements Operator.
func (s *NDPAggScan) Columns() []string {
	names := make([]string, 0, len(s.Opts.NDP.GroupBy)+len(s.Outputs))
	for range s.Opts.NDP.GroupBy {
		names = append(names, "") // group columns keep scan names; filled by planner via Cols if needed
	}
	for _, o := range s.Outputs {
		names = append(names, o.Name)
	}
	return names
}

// partAcc accumulates one scan partition's groups, in that partition's
// key order. Each parallel worker owns exactly one partAcc, so no
// locking: the scan scheduler guarantees one goroutine per partition
// sink. A finished partition holds an ordered list of (group key,
// partial states) pairs; groups that span a slice boundary appear in
// two adjacent partitions and are re-merged by the ordered merge.
type partAcc struct {
	ndp      *engine.NDPPush
	stats    *ExecStats
	acc      *core.Aggregator
	grouped  bool
	curKey   types.Row
	have     bool
	keys     []types.Row
	states   [][]core.AggState
	scalarOK bool // scalar partition saw at least one record
}

func newPartAcc(ndp *engine.NDPPush, stats *ExecStats) (*partAcc, error) {
	acc, err := core.NewAggregator(ndp.Aggs)
	if err != nil {
		return nil, err
	}
	return &partAcc{ndp: ndp, stats: stats, acc: acc, grouped: len(ndp.GroupBy) > 0}, nil
}

// capture snapshots the current group's partial states (the aggregator
// exposes its internal slice, so copy before Reset).
func (a *partAcc) capture() {
	a.keys = append(a.keys, a.curKey)
	a.states = append(a.states, append([]core.AggState(nil), a.acc.States()...))
	a.acc.Reset()
	a.curKey = nil
	a.have = false
}

func (a *partAcc) emit(row types.Row, states []core.AggState) error {
	a.stats.OperatorRows.Add(1)
	if a.grouped {
		if a.have {
			same := true
			for i, g := range a.ndp.GroupBy {
				if types.Compare(a.curKey[i], row[g]) != 0 {
					same = false
					break
				}
			}
			if !same {
				a.capture()
			}
		}
		if !a.have {
			key := make(types.Row, 0, len(a.ndp.GroupBy))
			for _, g := range a.ndp.GroupBy {
				key = append(key, row[g])
			}
			a.curKey = key.Clone()
			a.have = true
		}
	} else {
		a.scalarOK = true
	}
	if states != nil {
		if err := a.acc.MergeStates(states); err != nil {
			return err
		}
	}
	return a.acc.AccumulateRow(row)
}

// finish flushes the partition's trailing group (grouped) or its
// single partial state (scalar).
func (a *partAcc) finish() {
	if a.grouped {
		if a.have {
			a.capture()
		}
		return
	}
	if a.scalarOK {
		a.capture()
	}
}

// Open runs the scan to completion, accumulating groups. The scan is
// partitioned by slice and fanned out across the engine's scan worker
// pool; each partition accumulates its own ordered partial groups and
// Open re-merges them in group-key order, so the result is identical
// to the serial scan: the index delivers groups contiguously in key
// order ("the index access chosen for T must satisfy the grouping
// column requirement", §V-C), and a subsequence of a key-ordered scan
// is still key-ordered. Results are buffered because group count is
// small relative to input (the entire point of aggregation pushdown).
func (s *NDPAggScan) Open(ctx *Ctx) error {
	s.ctx = ctx
	if s.Opts.View == nil {
		s.Opts.View = ctx.View
	}
	if !s.Opts.Trace.Valid() {
		s.Opts.Trace = ctx.Trace
	}
	ndp := s.Opts.NDP
	if ndp == nil || len(ndp.Aggs) == 0 {
		return fmt.Errorf("exec: NDPAggScan requires aggregate pushdown")
	}
	ps, err := ctx.Eng.PrepareNDPScan(s.Opts)
	if err != nil {
		return err
	}
	accs := make([]*partAcc, ps.Parts())
	for i := range accs {
		if accs[i], err = newPartAcc(ndp, &ctx.Stats); err != nil {
			return err
		}
	}
	if err := ps.Run(func(part int) engine.EmitFunc { return accs[part].emit }); err != nil {
		return err
	}
	for _, a := range accs {
		a.finish()
	}
	// Merge partitions on one fresh aggregator, reused group by group.
	merge, err := core.NewAggregator(ndp.Aggs)
	if err != nil {
		return err
	}
	flush := func(key types.Row) error {
		out := make(types.Row, 0, len(ndp.GroupBy)+len(s.Outputs))
		out = append(out, key...)
		states := merge.States()
		for _, o := range s.Outputs {
			out = append(out, finalize(o, ndp.Aggs, states))
		}
		if s.Having == nil || s.Having.EvalBool(out) {
			s.results = append(s.results, out)
		}
		merge.Reset()
		return nil
	}
	if len(ndp.GroupBy) == 0 {
		// Scalar: fold every partition's partial state; always one row
		// (SQL semantics for aggregates over empty input).
		for _, a := range accs {
			for _, st := range a.states {
				if err := merge.MergeStates(st); err != nil {
					return err
				}
			}
		}
		return flush(nil)
	}
	// Grouped: k-way ordered merge by group key. Each partition's
	// groups are already in ascending key order (index order), so
	// repeatedly taking the minimum key — merging every partition
	// holding that key, i.e. groups split across a slice boundary —
	// reproduces the serial scan's output order exactly.
	pos := make([]int, len(accs))
	for {
		var minKey types.Row
		for pi, a := range accs {
			if pos[pi] >= len(a.keys) {
				continue
			}
			if minKey == nil || compareKeys(a.keys[pos[pi]], minKey) < 0 {
				minKey = a.keys[pos[pi]]
			}
		}
		if minKey == nil {
			return nil
		}
		for pi, a := range accs {
			if pos[pi] < len(a.keys) && compareKeys(a.keys[pos[pi]], minKey) == 0 {
				if err := merge.MergeStates(a.states[pos[pi]]); err != nil {
					return err
				}
				pos[pi]++
			}
		}
		if err := flush(minKey); err != nil {
			return err
		}
	}
}

// compareKeys orders group keys columnwise (equal lengths by
// construction).
func compareKeys(a, b types.Row) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// finalize turns accumulated states into the output datum.
func finalize(o AggOutput, specs []core.AggSpec, states []core.AggState) types.Datum {
	if o.AvgCount >= 0 {
		sum := states[o.Spec]
		cnt := states[o.AvgCount].Count
		if !sum.Has || cnt == 0 {
			return types.Null()
		}
		return expr.Arith(expr.OpDiv, sum.Val, types.NewInt(cnt))
	}
	st := states[o.Spec]
	switch specs[o.Spec].Fn {
	case core.AggCountStar, core.AggCount:
		return types.NewInt(st.Count)
	default:
		if !st.Has {
			return types.Null()
		}
		return st.Val
	}
}

// Next implements Operator.
func (s *NDPAggScan) Next() (types.Row, error) {
	if s.pos >= len(s.results) {
		return nil, nil
	}
	row := s.results[s.pos]
	s.pos++
	return row, nil
}

// Close implements Operator.
func (s *NDPAggScan) Close() error {
	s.results = nil
	return nil
}
