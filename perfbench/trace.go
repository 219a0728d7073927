package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one traced call into a layer. Spans of one op share op; parent is
// the index of the enclosing span in tracer.spans, or -1 for a root.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the tracer's origin
	cpu        time.Duration // process user+system CPU while the span ran
	alloc      uint64        // process heap bytes allocated while the span ran
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span of a traced run in memory; the run reads them
// when it ends. The benchmark's traced mode issues one layer call at a time,
// so the process-wide CPU and allocation deltas taken around a call belong
// to the span that brackets it. A nil *tracer is valid and records nothing,
// so the untraced path runs the same code with no bookkeeping.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   []int // stack of open span indexes
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginOp starts a new op id; spans opened from now on carry it.
func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// do runs f inside a span named name, nested under the innermost open span.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent})
	t.open = append(t.open, idx)
	t.mu.Unlock()

	cpu0, alloc0 := processCPU(), heapAllocBytes()
	start := time.Since(t.origin)
	f()
	end := time.Since(t.origin)
	cpu1, alloc1 := processCPU(), heapAllocBytes()

	t.mu.Lock()
	s := &t.spans[idx]
	s.start, s.end = start, end
	s.cpu, s.alloc = cpu1-cpu0, alloc1-alloc0
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// writeSpans writes every span as one JSON line: op id, name, parent index
// (-1 for a root), start and end in microseconds since the run began, CPU
// microseconds and allocated bytes.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Op         int    `json:"op"`
			Name       string `json:"name"`
			Parent     int    `json:"parent"`
			StartUS    int64  `json:"start_us"`
			EndUS      int64  `json:"end_us"`
			CPUUS      int64  `json:"cpu_us"`
			AllocBytes uint64 `json:"alloc_bytes"`
		}{s.op, s.name, s.parent, s.start.Microseconds(), s.end.Microseconds(), s.cpu.Microseconds(), s.alloc}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// opCPU is the CPU time of all "op" spans.
func (t *tracer) opCPU() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == "op" {
			d += s.cpu
		}
	}
	return d
}

// step runs f in a span named name unless *err is already set, and stores
// f's error in *err: a chain of layer calls that stops at the first error.
func (t *tracer) step(err *error, name string, f func() error) {
	if *err == nil {
		t.do(name, func() { *err = f() })
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// merged first, so a moment is subtracted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Duration{spans[c].start, spans[c].end})
		}
		self[i] = s.dur() - covered(s.start, s.end, ivs)
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	cur := lo // everything before cur is accounted for
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcStats samples the runtime's GC CPU accounting and cycle count.
type gcStats struct {
	gcCPU, totalCPU float64 // seconds
	cycles          uint64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}
