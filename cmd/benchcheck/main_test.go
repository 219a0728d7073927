package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

// run checks got against ref and returns whether a gate failed, plus the
// printed report.
func run(ref, got perf.Bench) (bool, string) {
	var sb strings.Builder
	c := &checker{w: &sb}
	c.check(ref, got)
	return c.failed, sb.String()
}

// expect fails the test unless the check's verdict is wantFail and its
// report contains every wanted fragment.
func expect(t *testing.T, ref, got perf.Bench, wantFail bool, want ...string) {
	t.Helper()
	failed, out := run(ref, got)
	if failed != wantFail {
		t.Errorf("failed = %t, want %t:\n%s", failed, wantFail, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("report lacks %q:\n%s", w, out)
		}
	}
}

func corpusBench(edit func(*perf.Snapshot)) perf.Bench {
	s := perf.Snapshot{Label: "corpus", TokensDelivered: 1000, SolveIterations: 900, SweepVisited: 5000,
		TokensDeliveredBase: 800, SolveIterationsBase: 700, CyclesCollapsed: 100, VarsUnified: 400,
		CopiesSubstituted: 50, EdgesDeduped: 300, RedundantSkipped: 10}
	if edit != nil {
		edit(&s)
	}
	return perf.Bench{MaxProcs: 2, Rows: []perf.Snapshot{s}}
}

func TestCorpusDrift(t *testing.T) {
	ref := corpusBench(nil)
	expect(t, ref, corpusBench(nil), false, "[corpus] tokens_delivered", "[corpus] edges_deduped")
	// One-sided effort: less work passes, more than 10% more fails.
	expect(t, ref, corpusBench(func(s *perf.Snapshot) { s.TokensDelivered = 500 }), false)
	expect(t, ref, corpusBench(func(s *perf.Snapshot) { s.TokensDelivered = 1090 }), false)
	expect(t, ref, corpusBench(func(s *perf.Snapshot) { s.TokensDeliveredBase = 900 }), true, "REGRESSION")
	// Two-sided structure: drift beyond 10% fails either way.
	expect(t, ref, corpusBench(func(s *perf.Snapshot) { s.CyclesCollapsed = 105 }), false)
	expect(t, ref, corpusBench(func(s *perf.Snapshot) { s.CyclesCollapsed = 85 }), true, "REGRESSION")
	expect(t, ref, corpusBench(func(s *perf.Snapshot) { s.VarsUnified = 500 }), true, "REGRESSION")
}

// TestDroppedCounterFails: a gated counter the reference has and the
// candidate reads as zero — a dropped or renamed key — fails even a
// one-sided gate, and unknown keys are rejected on load.
func TestDroppedCounterFails(t *testing.T) {
	expect(t, corpusBench(nil), corpusBench(func(s *perf.Snapshot) { s.SweepVisited = 0 }), true,
		"[corpus] sweep_visited", "REGRESSION")

	dir := t.TempDir()
	path := filepath.Join(dir, "renamed.json")
	data := `{"max_procs": 2, "rows": [{"label": "corpus", "projects": 1, "parses": 1, "parse_cache_hits": 0,
		"parse_cache_hit_rate": 0, "solve_iterations": 900, "tokens_delivered": 1000, "sweep_visitd": 5000}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil || !strings.Contains(err.Error(), "sweep_visitd") {
		t.Errorf("load accepted an unknown field: %v", err)
	}
}

func megaBench(maxProcs int, edit func(workers int, s *perf.Snapshot)) perf.Bench {
	b := perf.Bench{MaxProcs: maxProcs}
	for _, w := range []int{1, 2, 4} {
		s := perf.Snapshot{Label: perf.MegaLabel(w), SolverWorkers: w,
			TokensDelivered: 1000, SolveIterations: 900, SweepVisited: 5000, CyclesCollapsed: 100,
			SolverEpochs: 50, SolverCrossShard: 70, SolverAsyncSweeps: 3,
			// Good scaling: 4x at 4 workers, parallel share 0.8, barrier 0.25.
			SolveWallMS: 400 / float64(w), SolverScanMS: 240 / float64(w), SolverApplyMS: 80 / float64(w),
			SolverTailMS: 80 / float64(w)}
		if edit != nil {
			edit(w, &s)
		}
		b.Rows = append(b.Rows, s)
	}
	return b
}

func TestMegaRowsAgree(t *testing.T) {
	ref := megaBench(4, nil)
	expect(t, ref, megaBench(4, nil), false, "[workers=4] tokens_delivered", "speedup at 4 workers")
	expect(t, ref, megaBench(4, func(w int, s *perf.Snapshot) {
		if w == 2 {
			s.SolverEpochs++
		}
	}), true, "workers=2: counters differ from workers=1")
	// Steals and times are scheduling diagnostics, free to differ.
	expect(t, ref, megaBench(4, func(w int, s *perf.Snapshot) { s.SolverSteals = int64(7 * w) }), false)
	// A reference row the candidate lacks fails.
	short := megaBench(4, nil)
	short.Rows = short.Rows[:2]
	expect(t, ref, short, true, "[workers=4]: MISSING from candidate")
}

func TestMegaMulticoreGates(t *testing.T) {
	// No scaling at all: one-worker timings on every row.
	flat := func(w int, s *perf.Snapshot) {
		s.SolveWallMS, s.SolverScanMS, s.SolverApplyMS, s.SolverTailMS = 400, 100, 20, 280
	}
	ref := megaBench(4, nil)
	if failed, out := run(ref, megaBench(2, flat)); failed ||
		strings.Count(out, "skipped: measured with GOMAXPROCS=2 < 4") != 4 {
		t.Errorf("GOMAXPROCS=2: failed = %t, want all four multicore gates skipped:\n%s", failed, out)
	}
	failed, out := run(ref, megaBench(4, flat))
	if !failed {
		t.Fatalf("flat scaling passed at GOMAXPROCS=4:\n%s", out)
	}
	for _, name := range []string{"speedup at 4 workers", "parallel share", "serial share", "barrier scale at 4 workers"} {
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, name) {
				line = l
			}
		}
		if !strings.HasSuffix(line, "REGRESSION") {
			t.Errorf("%s did not fail at GOMAXPROCS=4: %q", name, line)
		}
	}
}

func deltaBench(edit func(label string, s *perf.Snapshot)) perf.Bench {
	b := perf.Bench{MaxProcs: 2, ReportsIdentical: true}
	for _, r := range []perf.Snapshot{
		{Label: "cold", WallMS: 4000, Parses: 1300, CacheMisses: 1500, TokensDelivered: 450000, SolveIterations: 400000},
		{Label: "warm", WallMS: 20, CacheHits: 141},
		{Label: "edit-warm", WallMS: 50, Parses: 1, CacheHits: 150, CacheMisses: 3, TokensDelivered: 900, SolveIterations: 900},
		{Label: "edit-scratch", WallMS: 2700, Parses: 2400, TokensDelivered: 450000, SolveIterations: 400000},
	} {
		if edit != nil {
			edit(r.Label, &r)
		}
		b.Rows = append(b.Rows, r)
	}
	return b
}

func TestDeltaGates(t *testing.T) {
	ref := deltaBench(nil)
	expect(t, ref, deltaBench(nil), false, "[cold] tokens_delivered", "warm run fully cached", "warm speedup", "edit speedup")
	expect(t, ref, deltaBench(func(l string, s *perf.Snapshot) {
		if l == "cold" {
			s.SolveIterations = 500000
		}
	}), true, "[cold] solve_iterations")

	notIdentical := deltaBench(nil)
	notIdentical.ReportsIdentical = false
	expect(t, ref, notIdentical, true, "reports_identical")

	for name, edit := range map[string]func(*perf.Snapshot){
		"parses": func(s *perf.Snapshot) { s.Parses = 1 },
		"misses": func(s *perf.Snapshot) { s.CacheMisses = 1 },
		"tokens": func(s *perf.Snapshot) { s.TokensDelivered = 1 },
	} {
		got := deltaBench(func(l string, s *perf.Snapshot) {
			if l == "warm" {
				edit(s)
			}
		})
		if failed, out := run(ref, got); !failed || !strings.Contains(out, "warm run fully cached") {
			t.Errorf("warm run with %s passed:\n%s", name, out)
		}
	}

	// Floors: cold/warm and cold/edit-warm must each stay >= 5x.
	expect(t, ref, deltaBench(func(l string, s *perf.Snapshot) {
		if l == "warm" {
			s.WallMS = 1000 // 4x
		}
	}), true, "warm speedup")
	expect(t, ref, deltaBench(func(l string, s *perf.Snapshot) {
		if l == "edit-warm" {
			s.WallMS = 1000 // 4x
		}
	}), true, "edit speedup")
	expect(t, ref, deltaBench(func(l string, s *perf.Snapshot) {
		if l == "edit-warm" {
			s.WallMS = 600 // 6.7x
		}
	}), false)
}

// TestDeltaMissingColdRowFails: a candidate without the cold row cannot
// skip the cold effort gates.
func TestDeltaMissingColdRowFails(t *testing.T) {
	got := deltaBench(nil)
	got.Rows = got.Rows[1:]
	expect(t, deltaBench(nil), got, true, "[cold]: MISSING from candidate")
}

// TestCommittedBenchFiles: each committed BENCH file loads under the
// strict decoder and passes its own gates, except where it must not: the
// mega reference was measured below 4 cores, so its multicore gates skip.
func TestCommittedBenchFiles(t *testing.T) {
	for _, name := range []string{"BENCH_cycles.json", "BENCH_parallel.json", "BENCH_delta.json"} {
		b, err := load(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if failed, out := run(b, b); failed {
			t.Errorf("%s fails against itself:\n%s", name, out)
		}
	}
}
