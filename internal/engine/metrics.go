package engine

import "taurus/internal/obs"

// RegisterMetrics exports the rows the engine emitted to clients as a
// scrape-time counter; the rest of the work ledger is in
// Engine.Metrics. The role label distinguishes engines when one process
// hosts several (master + replicas).
func (e *Engine) RegisterMetrics(reg *obs.Registry, role string) {
	if reg == nil {
		return
	}
	reg.CounterFunc("taurus_engine_rows_emitted_total", "Rows emitted to clients.",
		func() float64 { return float64(e.Metrics.RowsEmitted.Load()) }, obs.L("role", role))
}
