package perf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSnapshotAdd: Add sums every count and phase time, keeps the parse
// hit rate current, and leaves the run description alone.
func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Projects: 1, Parses: 1, SolveIterations: 10, TokensDelivered: 25,
		SolveIterationsBase: 7, TokensDeliveredBase: 20, SolverEpochs: 3, SolverScanMS: 1.5}
	a.AddPhase(PhaseApprox, 5*time.Millisecond)
	b := Snapshot{Projects: 1, ParseCacheHits: 3, SolveIterations: 1, TokensDelivered: 2,
		SolveIterationsDelta: 4, TokensDeliveredDelta: 5, CacheHits: 2, CacheMisses: 1, DeltaModulesRean: 9}
	b.AddPhase(PhaseApprox, time.Millisecond)
	b.AddPhase(PhaseParse, 2*time.Millisecond)

	s := Snapshot{Label: "corpus", Workers: 4}
	s.Add(a)
	s.Add(b)
	if s.Label != "corpus" || s.Workers != 4 {
		t.Errorf("Add changed the run description: %q/%d", s.Label, s.Workers)
	}
	if s.Projects != 2 || s.Parses != 1 || s.ParseCacheHits != 3 || s.ParseHitRate != 0.75 {
		t.Errorf("parse counts wrong: %+v", s)
	}
	if s.SolveIterations != 11 || s.TokensDelivered != 27 ||
		s.SolveIterationsBase != 7 || s.TokensDeliveredBase != 20 ||
		s.SolveIterationsDelta != 4 || s.TokensDeliveredDelta != 5 {
		t.Errorf("solver counts wrong: %+v", s)
	}
	if s.SolverEpochs != 3 || s.SolverScanMS != 1.5 || s.CacheHits != 2 || s.CacheMisses != 1 || s.DeltaModulesRean != 9 {
		t.Errorf("epoch/cache counts wrong: %+v", s)
	}
	if s.PhaseMS["approx"] != 6 || s.PhaseMS["parse"] != 2 {
		t.Errorf("phase times wrong: %v", s.PhaseMS)
	}
	if a.PhaseMS["approx"] != 5 {
		t.Errorf("Add wrote through to its argument's phase map: %v", a.PhaseMS)
	}
}

func TestSnapshotJSONAndRender(t *testing.T) {
	s := Snapshot{Label: "corpus", Workers: 4, WallMS: 12.5, Parses: 1}
	s.AddPhase(PhaseParse, time.Millisecond)

	var buf bytes.Buffer
	if err := (Bench{MaxProcs: 2, Rows: []Snapshot{s}}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Bench
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	row := back.Row("corpus")
	if back.MaxProcs != 2 || row == nil || row.Workers != 4 || row.Parses != 1 || row.WallMS != 12.5 {
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
	var s Snapshot
	s.Add(Snapshot{FaultsContained: 3, ModulesDegraded: 2})
	s.Add(Snapshot{FaultsContained: 1})
	if s.FaultsContained != 4 || s.ModulesDegraded != 2 {
		t.Errorf("fault counters = %d/%d, want 4/2", s.FaultsContained, s.ModulesDegraded)
	}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "faults contained:   4") {
		t.Errorf("Render lacks the fault line:\n%s", out.String())
	}
	// A fault-free snapshot omits the line entirely.
	out.Reset()
	Snapshot{}.Render(&out)
	if strings.Contains(out.String(), "faults contained") {
		t.Errorf("fault-free Render still prints the fault line:\n%s", out.String())
	}
}

func TestSweepVisitedCounter(t *testing.T) {
	var s Snapshot
	s.Add(Snapshot{CyclesCollapsed: 1, VarsUnified: 2, EdgesDeduped: 3, RedundantSkipped: 4, SweepVisited: 500})
	s.Add(Snapshot{SweepVisited: 25})
	if s.SweepVisited != 525 {
		t.Fatalf("SweepVisited = %d, want 525", s.SweepVisited)
	}
	var buf bytes.Buffer
	if err := (Bench{Rows: []Snapshot{s}}).WriteJSON(&buf); err != nil {
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
}

// TestBenchRatios: the derived figures come from the labelled rows, and
// read zero when a row they need is missing.
func TestBenchRatios(t *testing.T) {
	mega := Bench{Rows: []Snapshot{
		{Label: MegaLabel(1), SolveWallMS: 100, SolverScanMS: 50, SolverApplyMS: 20, SolverTailMS: 20},
		{Label: MegaLabel(4), SolveWallMS: 40, SolverApplyMS: 5, SolverTailMS: 15},
	}}
	r := mega.Ratios()
	if r.SpeedupAt4 != 2.5 || r.ParallelShare != 0.7 || r.SerialShare != 0.3 || r.BarrierScale != 0.5 {
		t.Errorf("mega ratios wrong: %+v", r)
	}
	if r := (Bench{Rows: mega.Rows[:1]}).Ratios(); r.SpeedupAt4 != 0 || r.BarrierScale != 0 || r.ParallelShare != 0.7 {
		t.Errorf("ratios without a workers=4 row: %+v", r)
	}

	delta := Bench{Rows: []Snapshot{
		{Label: "cold", WallMS: 1000}, {Label: "warm", WallMS: 10}, {Label: "edit-warm", WallMS: 20},
	}}
	if r := delta.Ratios(); r.WarmSpeedup != 100 || r.EditSpeedup != 50 || r.SpeedupAt4 != 0 {
		t.Errorf("delta ratios wrong: %+v", r)
	}
	if r := (Bench{Rows: delta.Rows[1:]}).Ratios(); r.WarmSpeedup != 0 || r.EditSpeedup != 0 {
		t.Errorf("ratios without a cold row: %+v", r)
	}
}

// TestDeterministic: the worker-count-invariant counter set ignores the
// scheduling diagnostics and times.
func TestDeterministic(t *testing.T) {
	a := Snapshot{SolveIterations: 1, TokensDelivered: 2, SolverEpochs: 3, SolverCrossShard: 4, SolverAsyncSweeps: 5}
	b := a
	b.SolverSteals, b.SolverScanMS, b.SolveWallMS = 99, 1, 2
	if a.Deterministic() != b.Deterministic() {
		t.Error("steals or times changed the deterministic counters")
	}
	b.SolverCrossShard++
	if a.Deterministic() == b.Deterministic() {
		t.Error("a cross-shard difference went unnoticed")
	}
}
