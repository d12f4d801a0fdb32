// Package exec implements the Volcano-style query executor that sits
// above the storage engine, mirroring the MySQL execution layer the
// paper keeps unchanged: "iterators are initiated top-down in a tree,
// and data and result rows percolate bottom-up" (§III). Operators are
// unaware of NDP except through the scan operators, exactly as the
// paper's design demands ("the MySQL query execution layers above the
// storage engine are unaware of NDP processing").
//
// Parallel query (§VI) is engine.PrepareNDPScan's per-slice partitions:
// NDPAggScan runs them on the engine's scan worker pool and re-merges
// the partial groups, so one scan engages the SQL node's workers, the
// SAL's fan-out across Page Stores, and each Page Store's NDP workers
// (examples/parallel shows all three).
package exec

import (
	"sync/atomic"

	"taurus/internal/engine"
	"taurus/internal/obs"
	"taurus/internal/txn"
	"taurus/internal/types"
)

// Ctx carries per-query execution state.
type Ctx struct {
	Eng  *engine.Engine
	View *txn.ReadView
	// Stats ledgers SQL-node executor work for the CPU-time figures.
	Stats ExecStats
	// Trace, when valid, is the statement's sampled trace context;
	// scan operators hang their fan-out spans under it.
	Trace obs.TraceContext
}

// NewCtx builds a context with a fresh read view.
func NewCtx(eng *engine.Engine) *Ctx {
	return &Ctx{Eng: eng, View: eng.Txm().View(nil)}
}

// ExecStats counts executor work on the SQL node.
type ExecStats struct {
	// OperatorRows counts rows passing through operators (every
	// operator boundary crossing is one unit of interpreter work).
	OperatorRows atomic.Uint64
	// ExprEvals counts expression evaluations in executor operators.
	ExprEvals atomic.Uint64
	// HashOps counts hash table inserts and probes.
	HashOps atomic.Uint64
	// SortRows counts rows passing through sort operators.
	SortRows atomic.Uint64
}

// Snapshot copies the counters.
func (s *ExecStats) Snapshot() ExecStatsSnapshot {
	return ExecStatsSnapshot{
		OperatorRows: s.OperatorRows.Load(),
		ExprEvals:    s.ExprEvals.Load(),
		HashOps:      s.HashOps.Load(),
		SortRows:     s.SortRows.Load(),
	}
}

// ExecStatsSnapshot is a plain copy.
type ExecStatsSnapshot struct {
	OperatorRows uint64
	ExprEvals    uint64
	HashOps      uint64
	SortRows     uint64
}

// Sub returns s - o.
func (s ExecStatsSnapshot) Sub(o ExecStatsSnapshot) ExecStatsSnapshot {
	return ExecStatsSnapshot{
		OperatorRows: s.OperatorRows - o.OperatorRows,
		ExprEvals:    s.ExprEvals - o.ExprEvals,
		HashOps:      s.HashOps - o.HashOps,
		SortRows:     s.SortRows - o.SortRows,
	}
}

// Operator is a Volcano iterator. Open prepares; Next returns the next
// row or nil at end-of-stream; Close releases resources. Returned rows
// may alias operator-internal buffers and are valid until the next Next
// call; Clone to retain.
type Operator interface {
	Open(ctx *Ctx) error
	Next() (types.Row, error)
	Close() error
	// Columns names the output columns (for EXPLAIN and result sets).
	Columns() []string
}

// Run drains an operator tree and returns all rows (cloned).
func Run(ctx *Ctx, op Operator) ([]types.Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row.Clone())
	}
}
