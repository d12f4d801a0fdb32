package sql

import (
	"errors"
	"fmt"
	"strings"

	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/exec"
	"taurus/internal/expr"
	"taurus/internal/obs"
	"taurus/internal/plan"
	"taurus/internal/types"
)

// Session executes SQL statements against one engine.
type Session struct {
	Eng *engine.Engine
	Cat *plan.Catalog
	// NDP toggles near-data processing, like the server flag the paper's
	// experiments flip.
	NDP bool
	// ReadOnly rejects DDL and DML with a clear error — the read-replica
	// frontend's mode.
	ReadOnly bool
	// Slow, when armed, logs a per-stage breakdown of every statement
	// whose total time meets its threshold. Nil disables tracing.
	Slow *obs.SlowOpLog
	// Tracer, when set, opens a root span per sampled statement and
	// propagates its context through the write path and across RPCs.
	// Nil disables distributed tracing.
	Tracer *obs.Tracer
}

// NewSession creates a session with a fresh catalog.
func NewSession(eng *engine.Engine) *Session {
	return &Session{Eng: eng, Cat: plan.NewCatalog(eng), NDP: true}
}

// Result is a statement result.
type Result struct {
	Columns []string
	Rows    []types.Row
	// Explain holds EXPLAIN output (rows empty then).
	Explain string
	// Message describes DDL/DML outcomes.
	Message string
}

// Exec parses and executes one statement.
func (s *Session) Exec(sqlText string) (*Result, error) {
	res, _, err := s.ExecTraced(sqlText, false)
	return res, err
}

// ExecTraced executes one statement and reports the trace ID it ran under
// (0 when unsampled). When force is set a trace is opened regardless of the
// tracer's sampling rate — the `taurus-sql -trace` path. The returned ID
// keys the per-node span rings: assemble with obs.AssembleTrace over the
// spans each node collected for it.
func (s *Session) ExecTraced(sqlText string, force bool) (*Result, uint64, error) {
	// Traces exist only when the slow-op log is armed; every Step below
	// is a nil-safe no-op otherwise. The trace is a local (not a Session
	// field) because sessions are shared across goroutines.
	// slowTraceID is filled once the root span exists, so a SLOW-OP line
	// for a sampled statement carries the trace ID it can be joined on.
	var tr *obs.Trace
	var slowTraceID uint64
	if s.Slow.Enabled() {
		tr = obs.NewTrace(opSummary(sqlText))
		defer func() { s.Slow.ObserveTraced(tr, slowTraceID) }()
	}
	// The root statement span. Everything downstream — SAL window seals,
	// Log Store appends, Page Store applies — hangs off its context.
	var root *obs.SpanHandle
	if force {
		root = s.Tracer.StartTrace("sql:" + opSummary(sqlText))
	} else {
		root = s.Tracer.MaybeTrace("sql:" + opSummary(sqlText))
	}
	tc := root.Context()
	slowTraceID = tc.TraceID
	res, err := s.exec(sqlText, tr, tc)
	// A replica read that missed its snapshot restarts the statement
	// once, after the replica's loop has moved the visible LSN past it.
	var miss *engine.SnapshotMissError
	if errors.As(err, &miss) {
		root.Annotate("restart: %v", err)
		s.Eng.ReadView().AwaitAbove(miss.LSN)
		res, err = s.exec(sqlText, tr, tc)
	}
	if err != nil {
		root.Annotate("err=%v", err)
	}
	root.End()
	return res, tc.TraceID, err
}

func (s *Session) exec(sqlText string, tr *obs.Trace, tc obs.TraceContext) (*Result, error) {
	stmt, err := Parse(sqlText)
	tr.Step("parse")
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *CreateTableStmt:
		if s.ReadOnly {
			return nil, fmt.Errorf("sql: replica is read-only: CREATE TABLE rejected (run DDL on the master)")
		}
		return s.execCreate(st, tr)
	case *InsertStmt:
		if s.ReadOnly {
			return nil, fmt.Errorf("sql: replica is read-only: INSERT rejected (write to the master)")
		}
		return s.execInsert(st, tr, tc)
	case *SelectStmt:
		return s.execSelect(st, tr, tc)
	default:
		return nil, fmt.Errorf("sql: unsupported statement")
	}
}

// opSummary compacts a statement for the slow-op line: collapsed
// whitespace, capped length.
func opSummary(sqlText string) string {
	s := strings.Join(strings.Fields(sqlText), " ")
	const max = 80
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

func typeToKind(c ColDef) (types.Column, error) {
	col := types.Column{Name: c.Name}
	switch c.Type {
	case "INT", "BIGINT", "INTEGER", "SMALLINT":
		col.Kind = types.KindInt
	case "DECIMAL", "NUMERIC":
		col.Kind = types.KindDecimal
	case "DOUBLE", "FLOAT", "REAL":
		col.Kind = types.KindFloat
	case "DATE":
		col.Kind = types.KindDate
	case "VARCHAR", "TEXT":
		col.Kind = types.KindString
	case "CHAR":
		col.Kind = types.KindString
		col.FixedLen = c.Len
	default:
		return col, fmt.Errorf("sql: unsupported type %s", c.Type)
	}
	return col, nil
}

func (s *Session) execCreate(st *CreateTableStmt, tr *obs.Trace) (*Result, error) {
	cols := make([]types.Column, len(st.Cols))
	for i, c := range st.Cols {
		col, err := typeToKind(c)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	schema := types.NewSchema(cols...)
	var pk []int
	for _, name := range st.PKCols {
		o := schema.ColIndex(name)
		if o < 0 {
			return nil, fmt.Errorf("sql: unknown primary key column %q", name)
		}
		pk = append(pk, o)
	}
	if _, err := s.Eng.CreateTable(st.Name, schema, pk); err != nil {
		return nil, err
	}
	tr.Step("create")
	return &Result{Message: fmt.Sprintf("table %s created", st.Name)}, nil
}

func (s *Session) execInsert(st *InsertStmt, tr *obs.Trace, tc obs.TraceContext) (*Result, error) {
	tbl, err := s.Eng.Table(st.Table)
	if err != nil {
		return nil, err
	}
	tx := s.Eng.Txm().Begin()
	if tc.Valid() {
		// Attribute every record this transaction stages to the statement's
		// trace: the B-tree layer only carries the transaction ID, so SAL
		// resolves trace contexts through this registration.
		tx.SetTrace(tc)
		if sc := s.Eng.SAL(); sc != nil {
			sc.SetTxnTrace(tx.ID, tc)
			defer sc.ClearTxnTrace(tx.ID)
		}
	}
	n := 0
	for _, vals := range st.Rows {
		if len(vals) != tbl.Schema.Len() {
			return nil, fmt.Errorf("sql: %d values for %d columns", len(vals), tbl.Schema.Len())
		}
		row := make(types.Row, len(vals))
		for i, v := range vals {
			d, err := v.Datum(tbl.Schema.Cols[i].Kind)
			if err != nil {
				return nil, err
			}
			row[i] = d
		}
		if err := s.Eng.Insert(tbl, tx, row); err != nil {
			return nil, err
		}
		n++
	}
	tr.Step("apply")
	// Commit = durable on the Log Stores; Page Store application is
	// asynchronous (reads wait on applied LSNs as needed).
	if err := s.Eng.Commit(tx); err != nil {
		return nil, err
	}
	tr.Step("commit")
	// Keep statistics fresh so NDP decisions see the data.
	if _, err := s.Cat.Analyze(st.Table); err != nil {
		return nil, err
	}
	tr.Step("analyze")
	return &Result{Message: fmt.Sprintf("%d rows inserted", n)}, nil
}

// exprBuilder converts AST expressions to executable expressions with a
// name→ordinal resolver.
type exprBuilder struct {
	schema  *types.Schema
	resolve func(name string) (int, error)
}

func (b *exprBuilder) kindOf(name string) types.Kind {
	if o := b.schema.ColIndex(name); o >= 0 {
		return b.schema.Cols[o].Kind
	}
	return types.KindNull
}

// litKindHint guides literal typing from the sibling column.
func siblingColumn(e Expr) string {
	switch t := e.(type) {
	case ColRef:
		return t.Name
	case BinExpr:
		if c := siblingColumn(t.L); c != "" {
			return c
		}
		return siblingColumn(t.R)
		// CallExpr deliberately yields no hint: YEAR(dt) = 1995 compares
		// integers even though dt is a date.
	}
	return ""
}

func (b *exprBuilder) build(e Expr, hintCol string) (*expr.Expr, error) {
	switch t := e.(type) {
	case ColRef:
		o, err := b.resolve(t.Name)
		if err != nil {
			return nil, err
		}
		return expr.Col(o, t.Name), nil
	case Lit:
		kind := types.KindInt
		if t.V.Date {
			kind = types.KindDate
		} else if t.V.Kind == tokString {
			kind = types.KindString
		} else if strings.Contains(t.V.Text, ".") {
			kind = types.KindDecimal
		}
		if hintCol != "" {
			if k := b.kindOf(hintCol); k != types.KindNull && t.V.Kind == tokNumber {
				kind = k
			}
		}
		d, err := t.V.Datum(kind)
		if err != nil {
			return nil, err
		}
		return expr.Const(d), nil
	case BinExpr:
		hint := siblingColumn(t.L)
		if hint == "" {
			hint = siblingColumn(t.R)
		}
		l, err := b.build(t.L, hint)
		if err != nil {
			return nil, err
		}
		r, err := b.build(t.R, hint)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "AND":
			return expr.And(l, r), nil
		case "OR":
			return expr.Or(l, r), nil
		case "=":
			return expr.EQ(l, r), nil
		case "<>":
			return expr.NE(l, r), nil
		case "<":
			return expr.LT(l, r), nil
		case "<=":
			return expr.LE(l, r), nil
		case ">":
			return expr.GT(l, r), nil
		case ">=":
			return expr.GE(l, r), nil
		case "+":
			return expr.Add(l, r), nil
		case "-":
			return expr.Sub(l, r), nil
		case "*":
			return expr.Mul(l, r), nil
		case "/":
			return expr.Div(l, r), nil
		case "LIKE":
			return expr.Like(l, r), nil
		case "NOT LIKE":
			return expr.NotLikeE(l, r), nil
		default:
			return nil, fmt.Errorf("sql: unsupported operator %s", t.Op)
		}
	case NotExpr:
		inner, err := b.build(t.E, hintCol)
		if err != nil {
			return nil, err
		}
		return expr.Not(inner), nil
	case BetweenExpr:
		hint := siblingColumn(t.E)
		x, err := b.build(t.E, hint)
		if err != nil {
			return nil, err
		}
		lo, err := b.build(t.Lo, hint)
		if err != nil {
			return nil, err
		}
		hi, err := b.build(t.Hi, hint)
		if err != nil {
			return nil, err
		}
		return expr.Between(x, lo, hi), nil
	case InExpr:
		hint := siblingColumn(t.E)
		x, err := b.build(t.E, hint)
		if err != nil {
			return nil, err
		}
		list := make([]*expr.Expr, 0, len(t.List))
		for _, le := range t.List {
			l, err := b.build(le, hint)
			if err != nil {
				return nil, err
			}
			list = append(list, l)
		}
		in := expr.In(x, list...)
		if t.Not {
			return expr.Not(in), nil
		}
		return in, nil
	case CallExpr:
		switch t.Fn {
		case "YEAR":
			a, err := b.build(t.Args[0], hintCol)
			if err != nil {
				return nil, err
			}
			return expr.Year(a), nil
		case "SUBSTRING":
			args := make([]*expr.Expr, 3)
			for i, ae := range t.Args {
				a, err := b.build(ae, "")
				if err != nil {
					return nil, err
				}
				args[i] = a
			}
			return expr.New(expr.OpSubstr, args...), nil
		case "DATE_ADD_DAY", "DATE_ADD_MONTH", "DATE_ADD_YEAR":
			base, err := b.build(t.Args[0], hintCol)
			if err != nil {
				return nil, err
			}
			amt, err := b.build(t.Args[1], "")
			if err != nil {
				return nil, err
			}
			if base.Op != expr.OpConst || amt.Op != expr.OpConst {
				return nil, fmt.Errorf("sql: INTERVAL arithmetic needs constant operands")
			}
			n := int(amt.Val.I)
			switch t.Fn {
			case "DATE_ADD_DAY":
				return expr.Const(base.Val.AddDays(n)), nil
			case "DATE_ADD_MONTH":
				return expr.Const(base.Val.AddMonths(n)), nil
			default:
				return expr.Const(base.Val.AddMonths(12 * n)), nil
			}
		default:
			return nil, fmt.Errorf("sql: unsupported function %s", t.Fn)
		}
	default:
		return nil, fmt.Errorf("sql: unsupported expression")
	}
}

// collectCols gathers column names referenced by an AST expression.
func collectCols(e Expr, into map[string]bool) {
	switch t := e.(type) {
	case ColRef:
		into[t.Name] = true
	case BinExpr:
		collectCols(t.L, into)
		collectCols(t.R, into)
	case NotExpr:
		collectCols(t.E, into)
	case BetweenExpr:
		collectCols(t.E, into)
		collectCols(t.Lo, into)
		collectCols(t.Hi, into)
	case InExpr:
		collectCols(t.E, into)
		for _, l := range t.List {
			collectCols(l, into)
		}
	case CallExpr:
		for _, a := range t.Args {
			collectCols(a, into)
		}
	}
}

func (s *Session) execSelect(st *SelectStmt, tr *obs.Trace, tc obs.TraceContext) (*Result, error) {
	tbl, err := s.Eng.Table(st.Table)
	if err != nil {
		return nil, err
	}
	idx := tbl.Primary
	schema := tbl.Schema

	// Expand * into all columns.
	items := st.Items
	if len(items) == 1 && items[0].Star {
		items = nil
		for _, c := range schema.Cols {
			items = append(items, SelectItem{Col: c.Name})
		}
	}

	// Determine the scan's output column set: plain select columns,
	// group columns, aggregate-argument columns, order columns, and —
	// as the paper's NDP projection always does — the primary key.
	need := map[string]bool{}
	for _, it := range items {
		if it.Col != "" {
			need[it.Col] = true
		}
		if it.AggArg != nil {
			collectCols(it.AggArg, need)
		}
	}
	for _, g := range st.GroupBy {
		need[g] = true
	}
	for _, o := range st.OrderBy {
		// Order keys that name select aliases are resolved later.
		if schema.ColIndex(o.Col) >= 0 {
			need[o.Col] = true
		}
	}
	for _, k := range tbl.PKCols {
		need[schema.Cols[k].Name] = true
	}
	var output []int
	outPos := map[string]int{}
	for i, c := range schema.Cols {
		if need[c.Name] {
			outPos[c.Name] = len(output)
			output = append(output, i)
		}
	}

	// WHERE over the full schema.
	fullBuilder := &exprBuilder{schema: schema, resolve: func(name string) (int, error) {
		o := schema.ColIndex(name)
		if o < 0 {
			return 0, fmt.Errorf("sql: unknown column %q", name)
		}
		return o, nil
	}}
	var where *expr.Expr
	if st.Where != nil {
		if where, err = fullBuilder.build(st.Where, ""); err != nil {
			return nil, err
		}
	}

	// Aggregates over the output layout.
	outSchema := schema.Project(output)
	outBuilder := &exprBuilder{schema: outSchema, resolve: func(name string) (int, error) {
		p, ok := outPos[name]
		if !ok {
			return 0, fmt.Errorf("sql: column %q not available after projection", name)
		}
		return p, nil
	}}

	spec := &plan.AccessSpec{
		Table: st.Table, Index: idx,
		Predicate: where, Output: output, LastInBlock: true,
	}
	hasAgg := false
	for _, it := range items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg {
		for _, g := range st.GroupBy {
			p, ok := outPos[g]
			if !ok {
				return nil, fmt.Errorf("sql: unknown GROUP BY column %q", g)
			}
			spec.GroupBy = append(spec.GroupBy, p)
		}
		for _, it := range items {
			if it.Agg == "" {
				// Plain columns must be grouping columns.
				found := false
				for _, g := range st.GroupBy {
					if g == it.Col {
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("sql: column %q must appear in GROUP BY", it.Col)
				}
				continue
			}
			cand := plan.AggCandidate{Name: itemName(it), ArgCol: -1}
			switch it.Agg {
			case "COUNT":
				if it.AggArg == nil {
					cand.Fn = core.AggCountStar
				} else {
					cand.Fn = core.AggCount
				}
			case "SUM":
				cand.Fn = core.AggSum
			case "MIN":
				cand.Fn = core.AggMin
			case "MAX":
				cand.Fn = core.AggMax
			case "AVG":
				cand.Avg = true
			}
			if it.AggArg != nil {
				arg, err := outBuilder.build(it.AggArg, "")
				if err != nil {
					return nil, err
				}
				if arg.Op == expr.OpCol {
					cand.ArgCol = arg.Col
				} else {
					cand.ArgExpr = arg
				}
			}
			spec.Aggs = append(spec.Aggs, cand)
		}
	}

	if st.Explain {
		dec := s.Cat.Decide(spec)
		return &Result{Explain: renderExplain(st, idx, spec, dec)}, nil
	}

	op, _, err := s.Cat.BuildAccess(spec, s.NDP, nil)
	if err != nil {
		return nil, err
	}
	tr.Step("plan")

	// Final projection to the SELECT item order.
	var finalExprs []*expr.Expr
	var finalNames []string
	if hasAgg {
		// BuildAccess output layout: group cols (spec.GroupBy order)
		// then aggregates (spec.Aggs order).
		aggBase := len(spec.GroupBy)
		aggIdx := 0
		for _, it := range items {
			if it.Agg == "" {
				for gi, g := range st.GroupBy {
					if g == it.Col {
						finalExprs = append(finalExprs, expr.Col(gi, it.Col))
					}
				}
				finalNames = append(finalNames, itemName(it))
				continue
			}
			finalExprs = append(finalExprs, expr.Col(aggBase+aggIdx, itemName(it)))
			finalNames = append(finalNames, itemName(it))
			aggIdx++
		}
	} else {
		for _, it := range items {
			p, ok := outPos[it.Col]
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", it.Col)
			}
			finalExprs = append(finalExprs, expr.Col(p, it.Col))
			finalNames = append(finalNames, itemName(it))
		}
	}
	op = &exec.Project{Input: op, Exprs: finalExprs, Names: finalNames}

	if len(st.OrderBy) > 0 {
		keys := make([]exec.OrderKey, len(st.OrderBy))
		for i, o := range st.OrderBy {
			pos := -1
			for j, n := range finalNames {
				if n == o.Col {
					pos = j
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %q must appear in SELECT", o.Col)
			}
			keys[i] = exec.OrderKey{Expr: expr.Col(pos, o.Col), Desc: o.Desc}
		}
		op = &exec.Sort{Input: op, Keys: keys}
	}
	if st.Limit >= 0 {
		op = &exec.Limit{Input: op, N: st.Limit}
	}

	ctx := exec.NewCtx(s.Eng)
	ctx.Trace = tc
	rows, err := exec.Run(ctx, op)
	if err != nil {
		return nil, err
	}
	tr.Step("execute")
	return &Result{Columns: finalNames, Rows: rows}, nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != "" {
		if it.AggArg == nil {
			return strings.ToLower(it.Agg) + "(*)"
		}
		if c, ok := it.AggArg.(ColRef); ok {
			return strings.ToLower(it.Agg) + "(" + c.Name + ")"
		}
		return strings.ToLower(it.Agg)
	}
	return it.Col
}

// renderExplain produces the Listing 2 style EXPLAIN output.
func renderExplain(st *SelectStmt, idx *engine.Index, spec *plan.AccessSpec, dec plan.Decision) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-> Index scan on %s using %s", st.Table, idx.Name)
	if dec.NDPEnabled() {
		fmt.Fprintf(&sb, " (NDP scan)")
	}
	sb.WriteByte('\n')
	if extras := plan.ExplainExtras(spec, dec); extras != "" {
		fmt.Fprintf(&sb, "   %s\n", extras)
	}
	if spec.Residual != nil {
		fmt.Fprintf(&sb, "   Residual condition: %s\n", spec.Residual)
	}
	for _, r := range dec.Reasons {
		fmt.Fprintf(&sb, "   note: %s\n", r)
	}
	return sb.String()
}
