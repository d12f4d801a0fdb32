package main

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []interval{
		{10, 40}, {30, 60}, // two parallel children overlapping on [30,40)
		{70, 80},
		{90, 130}, // runs past the parent: only [90,100) counts
		{-20, 5},  // started before it: only [0,5) counts
	}
	// covered: [0,5) + [10,60) + [70,80) + [90,100) = 75
	if got := selfTime(parent, children); got != 25 {
		t.Errorf("self time = %d, want 25", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {20, 30}}); got != 0 {
		t.Errorf("fully covered span has self time %d, want 0", got)
	}
}

func TestFinishAssignsParentsByContainment(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	r.add("pass", levelOp, "", at(0), at(100))
	r.add("query:Q1", levelQuery, "", at(0), at(50))
	// Two parallel calls to different stores inside Q1, each with its handler.
	r.add("batch_read", levelCall, "pagestore-1", at(5), at(30))
	r.add("batch_read", levelCall, "pagestore-2", at(10), at(40))
	r.add("batch_read", levelHandler, "pagestore-2", at(12), at(38))
	r.add("batch_read", levelHandler, "pagestore-1", at(6), at(29))
	// A background call outside every op.
	r.add("write_logs", levelCall, "pagestore-3", at(120), at(130))
	spans := r.finish()
	find := func(name string, level int, node string) int {
		for i, s := range spans {
			if s.Name == name && s.Level == level && s.Node == node {
				return i
			}
		}
		t.Fatalf("span %s/%d/%s not found", name, level, node)
		return -1
	}
	pass := find("pass", levelOp, "")
	q1 := find("query:Q1", levelQuery, "")
	c1 := find("batch_read", levelCall, "pagestore-1")
	c2 := find("batch_read", levelCall, "pagestore-2")
	h1 := find("batch_read", levelHandler, "pagestore-1")
	h2 := find("batch_read", levelHandler, "pagestore-2")
	bg := find("write_logs", levelCall, "pagestore-3")
	for _, c := range []struct{ child, parent int }{{q1, pass}, {c1, q1}, {c2, q1}, {h1, c1}, {h2, c2}} {
		if spans[c.child].Parent != c.parent {
			t.Errorf("span %d (%s on %s) has parent %d, want %d", c.child, spans[c.child].Name, spans[c.child].Node, spans[c.child].Parent, c.parent)
		}
		if spans[c.child].Op != pass {
			t.Errorf("span %d has op %d, want %d", c.child, spans[c.child].Op, pass)
		}
	}
	if spans[bg].Parent != -1 || spans[bg].Op != -1 {
		t.Errorf("background call got parent %d op %d, want none", spans[bg].Parent, spans[bg].Op)
	}
}
