package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/perf"
	"repro/internal/static"
)

// DefaultMegaWorkers are the worker-count arms of the standard mega-tier
// scaling run: the epoch engine at 1, 2, and 4 scan workers, with the
// one-worker row as the speedup baseline.
var DefaultMegaWorkers = []int{1, 2, 4}

// RunMegaBench runs the solver-scaling benchmark: one baseline analysis of
// the mega-project tier (corpus.Mega) per worker count, one row each
// (labelled perf.MegaLabel) in the Bench of BENCH_parallel.json. Every arm
// rebuilds the project from scratch so no parse cache or solver state
// leaks between arms.
//
// The epoch engine is deterministic across worker counts by construction,
// so the deterministic counters of every row (perf.Snapshot.Deterministic)
// must agree exactly; RunMegaBench returns an error (rather than a Bench)
// when they do not, making any nondeterminism a hard failure of the
// benchmark itself. Wall times and scheduling diagnostics (steals, phase
// splits) are the only fields allowed to vary.
func RunMegaBench(nModules int, workers []int) (*perf.Bench, error) {
	if len(workers) == 0 {
		workers = DefaultMegaWorkers
	}
	bench := &perf.Bench{MaxProcs: runtime.GOMAXPROCS(0)}
	for _, w := range workers {
		b := corpus.Mega(nModules)
		res, err := static.Analyze(b.Project, static.Options{Mode: static.Baseline, SolverWorkers: w})
		if err != nil {
			return nil, fmt.Errorf("mega workers=%d: %w", w, err)
		}
		row := static.Snapshot(nil, res)
		row.Label, row.SolverWorkers = perf.MegaLabel(w), w
		if len(bench.Rows) > 0 {
			if ref := bench.Rows[0]; row.Deterministic() != ref.Deterministic() {
				return nil, fmt.Errorf(
					"mega workers=%d: deterministic counters diverged from workers=%d: %v vs %v",
					w, ref.SolverWorkers, row.Deterministic(), ref.Deterministic())
			}
		}
		bench.Rows = append(bench.Rows, row)
	}
	return bench, nil
}
