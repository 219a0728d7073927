package main

import (
	"testing"
	"time"
)

func sp(name string, parent int, start, end time.Duration) span {
	return span{name: name, parent: parent, start: start, end: end}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		0: sp("op", -1, 0, 100*ms),
		1: sp("a", 0, 10*ms, 30*ms),  // nested in op
		2: sp("b", 0, 20*ms, 50*ms),  // overlaps a: op loses 10..50 once
		3: sp("c", 1, 12*ms, 18*ms),  // nested in a, not op's direct child
		4: sp("d", 0, 90*ms, 120*ms), // sticks out of op: only 90..100 counts
		5: sp("e", 0, 40*ms, 45*ms),  // inside b: covered already
		6: sp("probe", -1, 0, 7*ms),  // another root
	}
	want := []time.Duration{
		0: 100*ms - 40*ms - 10*ms, // children cover 10..50 and 90..100
		1: 20*ms - 6*ms,
		2: 30 * ms,
		3: 6 * ms,
		4: 30 * ms,
		5: 5 * ms,
		6: 7 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.beginOp()
	tr.do("op", func() {
		tr.do("approx", func() {})
		tr.do("static", func() { tr.do("cache.load", func() {}) })
	})
	tr.beginOp()
	tr.do("op", func() {})
	if tr.spans[0].parent != -1 || tr.spans[1].parent != 0 || tr.spans[2].parent != 0 || tr.spans[3].parent != 2 {
		t.Errorf("wrong parents: %+v", tr.spans)
	}
	if tr.spans[0].op != 1 || tr.spans[3].op != 1 || tr.spans[4].op != 2 {
		t.Errorf("wrong op ids: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the call")
	}
}
