// Package costmodel provides the simulated-cluster cost model used to
// reproduce the paper's run-time figures (Figs. 6, 8, 9).
//
// The reproduction runs on a single machine, so wall-clock time cannot
// show a 32-worker SQL node feeding four Page Stores over a 25 Gbps
// fabric. Instead, every experiment measures exact work quantities (rows
// examined, predicate evaluations, hash/sort operations, bytes moved,
// storage-side records processed) and this model converts them into a
// simulated makespan:
//
//	T = serialCPU + max(parallelCPU/DOP, networkTime, storageTime)
//
// which captures the three effects the paper's run-time plots hinge on:
// PQ divides parallelizable SQL-node work by the degree of parallelism;
// the network becomes the bottleneck for full-page scans ("they must
// each transfer about 950 GB of data over the network, and bottleneck on
// I/O", §VII-A); and NDP removes that bottleneck while shifting record
// processing into the (parallel) Page Stores. Constants are stated, not
// fitted; EXPERIMENTS.md compares shapes, not absolute values.
package costmodel

// Model holds the cost constants.
type Model struct {
	// NetBytesPerSec is the SQL node's ingest bandwidth. The paper's
	// nodes have 25 Gbps NICs; the default is scaled down in proportion
	// to the database so that a full table scan is I/O-bound just as a
	// 950 GB transfer is on 25 Gbps.
	NetBytesPerSec float64
	// NetLatencyPerReq is the per-request storage round-trip time.
	// Point lookups (NL joins) are latency-bound and overlap across PQ
	// workers — the paper's "multiple worker threads performing lookups
	// on the inner table(s) concurrently" (§VII-E) — whereas big batch
	// reads are bandwidth-bound and are not helped by more workers.
	NetLatencyPerReq float64
	// CPUUnitsPerSec converts SQL-node work units into time.
	CPUUnitsPerSec float64
	// StoreRecordsPerSec is one Page Store worker's NDP record
	// processing rate.
	StoreRecordsPerSec float64
	// StoreParallelism is the total Page-Store-side concurrency
	// (stores × worker threads), the paper's levels 2+3 of parallelism.
	StoreParallelism float64
}

// DefaultModel matches the paper's small test cluster proportions: four
// Page Stores with multi-threaded NDP processing.
func DefaultModel() Model {
	// Calibration: a full table scan's transfer time is ~1/7 of its
	// serial SQL CPU time, mirroring the paper's micro-benchmark where
	// PQ-only reductions cap near 86% (not the 96.9% theoretical)
	// because the ~950 GB transfer saturates the 25 Gbps fabric at high
	// DOP (§VII-A, Fig. 6). The ratio is scale-invariant: both work and
	// bytes grow linearly with SF.
	return Model{
		NetBytesPerSec:     384 << 20, // scaled fabric
		NetLatencyPerReq:   100e-6,    // 100 µs per storage round trip
		CPUUnitsPerSec:     1e6,
		StoreRecordsPerSec: 4e6,
		StoreParallelism:   16, // 4 stores × 4 NDP workers
	}
}

// Work is the measured work of one query execution.
type Work struct {
	// NetBytes is bytes received by the SQL node from storage.
	NetBytes float64
	// NetRequests is the number of storage round trips (page reads,
	// batch reads, lookups).
	NetRequests float64
	// SerialCPUUnits is SQL-node work that PQ cannot divide (final
	// sorts, result assembly, leader-side merge).
	SerialCPUUnits float64
	// ParallelCPUUnits is SQL-node work PQ divides across workers
	// (scans, filters, joins, partial aggregation).
	ParallelCPUUnits float64
	// StoreRecords is the number of records Page Stores processed for
	// NDP (zero when NDP is off).
	StoreRecords float64
}

// Runtime computes the simulated makespan for the work at the given
// degree of parallelism.
func (m Model) Runtime(w Work, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	serial := w.SerialCPUUnits / m.CPUUnitsPerSec
	// Request latency overlaps across PQ workers; bandwidth does not.
	lat := w.NetRequests * m.NetLatencyPerReq
	parallel := (w.ParallelCPUUnits/m.CPUUnitsPerSec + lat) / float64(dop)
	netBW := w.NetBytes / m.NetBytesPerSec
	store := w.StoreRecords / m.StoreRecordsPerSec / m.StoreParallelism
	bottleneck := parallel
	if netBW > bottleneck {
		bottleneck = netBW
	}
	if store > bottleneck {
		bottleneck = store
	}
	return serial + bottleneck
}

// Reduction returns the percentage reduction of b versus a (positive
// means b is faster).
func Reduction(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return (1 - b/a) * 100
}
