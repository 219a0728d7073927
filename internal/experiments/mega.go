package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/perf"
	"repro/internal/static"
)

// DefaultMegaWorkers are the worker-count arms of the standard mega-tier
// scaling run: the sequential engine (0) as the baseline, then the epoch
// engine at 1, 2, and 4 scan workers.
var DefaultMegaWorkers = []int{0, 1, 2, 4}

// RunMegaBench runs the solver-scaling benchmark: one baseline analysis of
// the mega-project tier (corpus.Mega) per worker count, collected into a
// perf.ParallelSnapshot for BENCH_parallel.json. Every arm rebuilds the
// project from scratch so no parse cache or solver state leaks between
// arms.
//
// The parallel engine is deterministic across worker counts by
// construction, so the effort and structure counters of every workers >= 1
// row must agree exactly; RunMegaBench returns an error (rather than a
// snapshot) when they do not, making any nondeterminism a hard failure of
// the benchmark itself. Wall times and scheduling diagnostics (steals,
// phase splits) are the only fields allowed to vary.
func RunMegaBench(nModules int, workers []int) (*perf.ParallelSnapshot, error) {
	if len(workers) == 0 {
		workers = DefaultMegaWorkers
	}
	snap := &perf.ParallelSnapshot{MaxProcs: runtime.GOMAXPROCS(0)}

	var ref *perf.ParallelRow
	for _, w := range workers {
		b := corpus.Mega(nModules)
		snap.MegaModules = len(b.Project.Files) - 1 // modules, excluding the entry
		res, err := static.Analyze(b.Project, static.Options{Mode: static.Baseline, SolverWorkers: w})
		if err != nil {
			return nil, fmt.Errorf("mega workers=%d: %w", w, err)
		}
		row := perf.ParallelRow{
			SolverWorkers:    w,
			SolveWallMS:      float64(res.SolveWall.Microseconds()) / 1000,
			ScanMS:           float64(res.Parallel.ScanNS) / 1e6,
			ApplyMS:          float64(res.Parallel.ApplyNS) / 1e6,
			SerialTailMS:     float64(res.Parallel.TailNS) / 1e6,
			SweepOverlapMS:   float64(res.Parallel.SweepOverlapNS) / 1e6,
			Epochs:           res.Parallel.Epochs,
			Steals:           res.Parallel.Steals,
			CrossShard:       res.Parallel.CrossShard,
			AsyncSweeps:      res.Parallel.AsyncSweeps,
			SolveIterations:  res.SolveIterations,
			TokensDelivered:  res.TokensDelivered,
			CyclesCollapsed:  res.Structure.CyclesCollapsed,
			RedundantSkipped: res.Structure.RedundantSkipped,
			SweepVisited:     res.Structure.SweepVisited,
		}
		if w >= 1 {
			if ref == nil {
				r := row
				ref = &r
			} else if row.SolveIterations != ref.SolveIterations ||
				row.TokensDelivered != ref.TokensDelivered ||
				row.CyclesCollapsed != ref.CyclesCollapsed ||
				row.RedundantSkipped != ref.RedundantSkipped ||
				row.SweepVisited != ref.SweepVisited ||
				row.Epochs != ref.Epochs ||
				row.CrossShard != ref.CrossShard ||
				row.AsyncSweeps != ref.AsyncSweeps {
				return nil, fmt.Errorf(
					"mega workers=%d: deterministic counters diverged from workers=%d: %+v vs %+v",
					w, ref.SolverWorkers, row, *ref)
			}
		}
		snap.Rows = append(snap.Rows, row)
	}

	if r0, r4 := snap.Row(0), snap.Row(4); r0 != nil && r4 != nil && r4.SolveWallMS > 0 {
		snap.SpeedupAt4 = r0.SolveWallMS / r4.SolveWallMS
	}
	if r1 := snap.Row(1); r1 != nil && r1.SolveWallMS > 0 {
		snap.ParallelShare = (r1.ScanMS + r1.ApplyMS) / r1.SolveWallMS
	}
	return snap, nil
}
