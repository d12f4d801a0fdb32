package main

import (
	"math"
	"sort"
	"time"
)

// series collects one timing's samples in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of vals; 0
// for an empty slice. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// tailPercentiles are the candidates pickTail chooses from, ascending.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9}

// pickTail returns the highest candidate percentile that still has at
// least ten samples beyond it among n samples, or 50 when none has: a
// tail estimated from fewer than ten samples is not reported.
func pickTail(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		// The rank is rounded before subtracting: 100*(1-0.9) is not 10
		// in floating point.
		if n-int(math.Ceil(float64(n)*p/100-1e-9)) >= 10 {
			best = p
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a
// share of the median, the steadiness measure the acceptance rule uses.
// It mirrors Python's statistics.quantiles(values, n=4) (exclusive
// method) so the numbers -aa prints are the ones the rule is checked on.
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	med := cut(2)
	if med == 0 {
		return 0
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}

// segments is how many contiguous parts a window's samples are cut into.
// Each reported timing and rate is the median over the parts, so a
// disturbance that hits one part of the window (a neighbour's burst, one
// long collection) moves the reported value far less than it moves the
// window's own percentile or mean.
const segments = 5

// minPerSegment keeps a part large enough for its p90 to be a sample
// other than its maximum.
const minPerSegment = 20

// segmentQuantiles cuts s, which is in completion order, into contiguous
// parts (fewer than segments when samples are few, one at least) and
// returns the q-quantile of each.
func segmentQuantiles(s series, q float64) []float64 {
	if len(s) == 0 {
		return nil
	}
	k := len(s) / minPerSegment
	if k > segments {
		k = segments
	}
	if k < 1 {
		k = 1
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = quantile(s[i*len(s)/k:(i+1)*len(s)/k], q)
	}
	return out
}

// steady is the reported value of a timing: the median over the window's
// parts of the part's q-quantile. Several clients' series are cut
// separately and pooled.
func steady(q float64, clients ...series) float64 {
	var parts []float64
	for _, s := range clients {
		parts = append(parts, segmentQuantiles(s, q)...)
	}
	return median(parts)
}

// rateMeter measures throughput and CPU per unit of work over each part
// of the window. ops counts what stmt_per_s counts; units what
// cpu_ms_per_op divides by (they differ where a pass is six queries).
type rateMeter struct {
	seg      time.Duration
	next     time.Time
	at       time.Time
	ops      int
	units    int
	cpu      float64
	rates    []float64 // ops per second, one per part
	cpuPerOp []float64 // CPU milliseconds per unit, one per part
}

func newRateMeter(start time.Time, window time.Duration) *rateMeter {
	seg := window / segments
	return &rateMeter{seg: seg, next: start.Add(seg), at: start, cpu: cpuMillis()}
}

// observe is called with the running totals, after every operation or
// from a poller; it closes a part once its time is up.
func (r *rateMeter) observe(now time.Time, ops, units int) {
	if now.Before(r.next) {
		return
	}
	r.close(now, ops, units)
	for !r.next.After(now) {
		r.next = r.next.Add(r.seg)
	}
}

func (r *rateMeter) close(now time.Time, ops, units int) {
	cpu := cpuMillis()
	if dt := now.Sub(r.at).Seconds(); dt > 0 && units > r.units {
		r.rates = append(r.rates, float64(ops-r.ops)/dt)
		r.cpuPerOp = append(r.cpuPerOp, (cpu-r.cpu)/float64(units-r.units))
	}
	r.at, r.ops, r.units, r.cpu = now, ops, units, cpu
}

// finish closes the last part if it ran for at least half a part's time.
func (r *rateMeter) finish(now time.Time, ops, units int) {
	if now.Sub(r.at) >= r.seg/2 {
		r.close(now, ops, units)
	}
}
