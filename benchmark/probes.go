package main

import (
	"fmt"
	"time"

	"taurus/internal/cluster"
	"taurus/internal/core"
	"taurus/internal/page"
	"taurus/internal/plog"
	"taurus/internal/sql"
	"taurus/internal/wal"
)

// The probes time one layer at a time, outside the fleet, on inputs the
// traced run captured from its own traffic: what a layer costs on this
// workload's real messages, pages and records, with nothing else running.

// repeatFor calls fn until at least min has elapsed and returns the
// mean nanoseconds per call.
func repeatFor(min time.Duration, fn func()) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < min {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

const probeTime = 50 * time.Millisecond

// probeCodec times the four codec calls every in-process cluster call
// makes, on the captured exchanges, per KB of request plus response.
func probeCodec(c *capture) float64 {
	var bytes int
	type wire struct {
		req, resp         any
		reqType, respType cluster.MsgType
		reqBody, respBody []byte
	}
	var ws []wire
	for _, exs := range c.exchanges {
		for _, ex := range exs {
			w := wire{req: ex.req, resp: ex.resp}
			var err error
			if w.reqType, w.reqBody, err = cluster.EncodeRequest(ex.req); err != nil {
				continue
			}
			if w.respType, w.respBody, err = cluster.EncodeResponse(ex.resp, nil); err != nil {
				continue
			}
			bytes += len(w.reqBody) + len(w.respBody)
			ws = append(ws, w)
		}
	}
	if bytes == 0 {
		return 0
	}
	ns := repeatFor(probeTime, func() {
		for _, w := range ws {
			cluster.EncodeRequest(w.req)
			cluster.DecodeRequest(w.reqType, w.reqBody)
			cluster.EncodeResponse(w.resp, nil)
			cluster.DecodeResponse(w.respType, w.respBody)
		}
	})
	return ns / (float64(bytes) / 1024)
}

// probeWAL times record decode and encode on the captured log batches.
func probeWAL(c *capture) (encodeNS, decodeNS float64) {
	var recs []wal.Record
	for _, b := range c.logBatches {
		rs, err := wal.DecodeAll(b)
		if err == nil {
			recs = append(recs, rs...)
		}
	}
	if len(recs) == 0 {
		return 0, 0
	}
	decodeNS = repeatFor(probeTime, func() {
		for _, b := range c.logBatches {
			wal.DecodeAll(b)
		}
	}) / float64(len(recs))
	var buf []byte
	encodeNS = repeatFor(probeTime, func() {
		for i := range recs {
			buf = recs[i].Encode(buf[:0])
		}
	}) / float64(len(recs))
	return encodeNS, decodeNS
}

// probePlog appends the captured batches to a scratch log with the
// default group-commit window and returns the median append latency in
// milliseconds: this sandbox's flush cost, not a device's.
func probePlog(dir string, c *capture) (float64, error) {
	if len(c.logBatches) == 0 {
		return 0, nil
	}
	l, err := plog.Open(plog.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var s series
	for i := 0; i < 40; i++ {
		b := c.logBatches[i%len(c.logBatches)]
		t0 := time.Now()
		if _, err := l.Append(uint64(i+1), b); err != nil {
			return 0, err
		}
		s.add(time.Since(t0))
	}
	return median(s), nil
}

// probeCore runs the NDP processor on the captured lineitem leaf pages
// with the captured Q6 and Q1 descriptors.
func probeCore(c *capture) (pageUSp50, nsPerRecord float64) {
	var pages []*page.Page
	for _, buf := range c.leafPages {
		if pg, err := page.FromBytes(buf); err == nil {
			pages = append(pages, pg)
		}
	}
	var s series
	var totalNS, records float64
	for _, q := range []string{"Q6", "Q1"} {
		desc, ok := c.descs[q]
		if !ok || len(pages) == 0 {
			continue
		}
		proc, err := core.NewProcessor(desc)
		if err != nil {
			continue
		}
		for round := 0; round < 5; round++ {
			for _, pg := range pages {
				t0 := time.Now()
				_, st, err := proc.ProcessPage(pg)
				d := time.Since(t0)
				if err != nil {
					continue
				}
				s = append(s, float64(d.Nanoseconds())/1e3)
				totalNS += float64(d.Nanoseconds())
				records += float64(st.RecordsIn)
			}
		}
	}
	if records == 0 {
		return 0, 0
	}
	return median(s), totalNS / records
}

// probePage times what the SQL node does to every row of a raw page:
// parse the page, walk its records, split each payload into key and row.
func probePage(c *capture) float64 {
	records := 0
	for _, buf := range c.leafPages {
		if pg, err := page.FromBytes(buf); err == nil {
			records += pg.NumRecords()
		}
	}
	if records == 0 {
		return 0
	}
	ns := repeatFor(probeTime, func() {
		for _, buf := range c.leafPages {
			pg, err := page.FromBytes(buf)
			if err != nil {
				continue
			}
			pg.Iter(func(r page.Record) bool {
				page.SplitLeafPayload(r.Payload)
				return true
			})
		}
	})
	return ns / float64(records)
}

// probeParse times sql.Parse on the workload's statements.
func probeParse(stmts []string) float64 {
	if len(stmts) == 0 {
		return 0
	}
	ns := repeatFor(probeTime, func() {
		for _, s := range stmts {
			sql.Parse(s)
		}
	})
	return ns / float64(len(stmts)) / 1e3
}

// runProbes fills the T metrics that come from direct layer probes.
func runProbes(o options, f *tracedFleet, stmts []string, commits int, res *result) {
	c := f.cap
	c.mu.Lock()
	defer c.mu.Unlock()
	m := res.metrics
	m["cluster.codec_ns_per_kb"] = probeCodec(c)
	m["wal.encode_ns_per_record"], m["wal.decode_ns_per_record"] = probeWAL(c)
	m["wal.bytes_per_commit"] = per(float64(c.logBytes), commits)
	m["core.process_page_us_p50"], m["core.ns_per_record"] = probeCore(c)
	m["page.decode_ns_per_record"] = probePage(c)
	m["sql.parse_us_per_stmt"] = probeParse(stmts)
	ms, err := probePlog(o.tmpDir+"/probe-plog", c)
	if err != nil {
		res.info = append(res.info, fmt.Sprintf("plog probe: %v", err))
	}
	m["plog.append_fsync_ms_p50"] = ms
	res.info = append(res.info, fmt.Sprintf("probes: %d leaf pages, %d descriptors, %d log batches captured",
		len(c.leafPages), len(c.descs), len(c.logBatches)))
}
