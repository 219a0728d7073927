package perf

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersBasic(t *testing.T) {
	var c Counters
	c.AddProject()
	c.AddParse(2 * time.Millisecond)
	c.AddParseHit()
	c.AddParseHit()
	c.AddParseHit()
	c.AddSolve(10, 25)
	c.AddPhase(PhaseApprox, 5*time.Millisecond)

	s := c.Snapshot()
	if s.Projects != 1 || s.Parses != 1 || s.ParseCacheHits != 3 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.ParseHitRate != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", s.ParseHitRate)
	}
	if s.SolveIterations != 10 || s.TokensDelivered != 25 {
		t.Errorf("solve counters wrong: %+v", s)
	}
	if s.PhaseMS["approx"] != 5 || s.PhaseMS["parse"] != 2 {
		t.Errorf("phase times wrong: %v", s.PhaseMS)
	}

	c.Reset()
	if s := c.Snapshot(); s.Projects != 0 || s.Parses != 0 || s.PhaseMS["approx"] != 0 {
		t.Errorf("reset did not zero: %+v", s)
	}
}

func TestIncrementalAndAllocCounters(t *testing.T) {
	var c Counters
	c.AddIncrementalSolve(100, 200, 10, 20)
	c.AddIncrementalSolve(1, 2, 3, 4)
	c.AddPhaseAlloc(PhaseBaseline, 1<<20)
	c.AddPhaseAlloc(PhaseBaseline, 1<<20)
	c.AddPhaseAlloc(PhaseExtended, 512)
	c.AddPhaseAlloc(Phase(-1), 999) // out of range: ignored

	s := c.Snapshot()
	if s.SolveIterationsBase != 101 || s.TokensDeliveredBase != 202 ||
		s.SolveIterationsDelta != 13 || s.TokensDeliveredDelta != 24 {
		t.Errorf("incremental split wrong: %+v", s)
	}
	if s.PhaseAllocBytes["baseline"] != 2<<20 || s.PhaseAllocBytes["extended"] != 512 {
		t.Errorf("phase allocs wrong: %v", s.PhaseAllocBytes)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solve_iterations_baseline", "solve_iterations_delta", "phase_alloc_bytes"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, buf.String())
		}
	}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "resumed delta") || !strings.Contains(out.String(), "MB alloc") {
		t.Errorf("render missing incremental/alloc lines:\n%s", out.String())
	}

	c.Reset()
	if s := c.Snapshot(); s.SolveIterationsBase != 0 || s.PhaseAllocBytes != nil {
		t.Errorf("reset did not zero incremental/alloc counters: %+v", s)
	}
}

func TestTotalAllocBytesMonotone(t *testing.T) {
	a := TotalAllocBytes()
	sink := make([]byte, 1<<20)
	_ = sink
	if b := TotalAllocBytes(); b < a {
		t.Errorf("TotalAllocBytes went backwards: %d then %d", a, b)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddParse(time.Microsecond)
				c.AddParseHit()
				c.AddSolve(1, 2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Parses != 8000 || s.ParseCacheHits != 8000 || s.SolveIterations != 8000 || s.TokensDelivered != 16000 {
		t.Errorf("concurrent totals wrong: %+v", s)
	}
}

func TestSnapshotJSONAndRender(t *testing.T) {
	var c Counters
	c.AddParse(time.Millisecond)
	s := c.Snapshot()
	s.Workers = 4
	s.WallMS = 12.5

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Workers != 4 || back.Parses != 1 || back.WallMS != 12.5 {
		t.Errorf("round trip wrong: %+v", back)
	}

	var out strings.Builder
	s.Render(&out)
	for _, want := range []string{"workers", "parses", "solve iterations", "parse", "dyncg"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
}

func TestFaultCounters(t *testing.T) {
	var c Counters
	c.AddFaults(3, 2)
	c.AddFaults(1, 0)
	s := c.Snapshot()
	if s.FaultsContained != 4 || s.ModulesDegraded != 2 {
		t.Errorf("fault counters = %d/%d, want 4/2", s.FaultsContained, s.ModulesDegraded)
	}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "faults contained:   4") {
		t.Errorf("Render lacks the fault line:\n%s", out.String())
	}
	c.Reset()
	if s := c.Snapshot(); s.FaultsContained != 0 || s.ModulesDegraded != 0 {
		t.Errorf("reset did not zero fault counters: %+v", s)
	}
	// A fault-free snapshot omits the line entirely.
	out.Reset()
	c.Snapshot().Render(&out)
	if strings.Contains(out.String(), "faults contained") {
		t.Errorf("fault-free Render still prints the fault line:\n%s", out.String())
	}
}

func TestSweepVisitedCounter(t *testing.T) {
	var c Counters
	c.AddSolveStructure(1, 2, 0, 3, 4, 500)
	c.AddSolveStructure(0, 0, 0, 0, 0, 25)
	s := c.Snapshot()
	if s.SweepVisited != 525 {
		t.Fatalf("SweepVisited = %d, want 525", s.SweepVisited)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"sweep_visited": 525`) {
		t.Errorf("JSON lacks sweep_visited:\n%s", buf.String())
	}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "cycle sweeps:       525 vars+edges visited") {
		t.Errorf("render lacks the sweep line:\n%s", out.String())
	}
	c.Reset()
	if got := c.Snapshot().SweepVisited; got != 0 {
		t.Errorf("Reset left SweepVisited = %d", got)
	}
}
