package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span levels, outermost first. A span's parent is the tightest span of
// a lower level that contains it in time.
const (
	levelOp      = iota // one client operation: a scan pass, a statement, a visibility wait
	levelQuery          // one query of a pass
	levelCall           // client side of one cluster call (transport wrapper)
	levelHandler        // server side of one cluster call (handler wrapper)
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Level  int    `json:"level"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the written list, -1 for none
	Op     int    `json:"op"`     // index of the enclosing op span, -1 outside every op
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; the traced run writes them out once
// at exit, so recording costs one mutex and one append per span.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, level int, node string, start, end time.Time) {
	s := span{Name: name, Level: level, Node: node,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
		Parent: -1, Op: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// finish sorts the spans by start time and gives each its parent and op.
// A handler span only takes a call span of the same message type and
// node as parent: concurrent calls to different stores overlap in time.
func (r *recorder) finish() []span {
	r.mu.Lock()
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Level != spans[j].Level {
			return spans[i].Level < spans[j].Level
		}
		return spans[i].End > spans[j].End
	})
	// active[l] holds indexes of level-l spans that may still contain a
	// later span; concurrency is small, so the lists stay short.
	var active [levelHandler + 1][]int
	for i := range spans {
		s := &spans[i]
		for l := s.Level - 1; l >= 0 && s.Parent < 0; l-- {
			live := active[l][:0]
			best := -1
			for _, j := range active[l] {
				p := &spans[j]
				if p.End < s.Start {
					continue // expired
				}
				live = append(live, j)
				if p.End < s.End {
					continue
				}
				if s.Level == levelHandler && l == levelCall && (p.Name != s.Name || p.Node != s.Node) {
					continue
				}
				if best < 0 || p.Start >= spans[best].Start {
					best = j
				}
			}
			active[l] = live
			s.Parent = best
		}
		switch {
		case s.Level == levelOp:
			s.Op = i
		case s.Parent >= 0:
			s.Op = spans[s.Parent].Op
		}
		active[s.Level] = append(active[s.Level], i)
	}
	return spans
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals, each
// clipped to [lo, hi): overlapping parallel children count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curEnd int64
	curEnd = lo
	for _, iv := range clipped {
		if iv.start > curEnd {
			curEnd = iv.start
		}
		if iv.end > curEnd {
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []interval) int64 {
	return s.dur() - unionLen(children, s.Start, s.End)
}

// writeSpans dumps the spans as gzipped JSON lines.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
