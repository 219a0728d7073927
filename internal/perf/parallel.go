package perf

import (
	"encoding/json"
	"fmt"
	"io"
)

// ParallelRow is one worker-count arm of a mega-tier scaling run. Effort
// and structure counters (SolveIterations, TokensDelivered, ...) must be
// identical across every row of a snapshot — the parallel engine is
// deterministic by construction — so cmd/benchcheck treats any divergence
// as a regression. SolverWorkers 0 is the untouched sequential engine;
// 1..n run the epoch engine with that many workers.
type ParallelRow struct {
	SolverWorkers int `json:"solver_workers"`

	SolveWallMS    float64 `json:"solve_wall_ms"`
	ScanMS         float64 `json:"solver_scan_ms,omitempty"`
	ApplyMS        float64 `json:"solver_apply_ms,omitempty"`
	SerialTailMS   float64 `json:"solver_serial_tail_ms,omitempty"`
	SweepOverlapMS float64 `json:"solver_sweep_overlap_ms,omitempty"`

	Epochs      int64 `json:"solver_epochs,omitempty"`
	Steals      int64 `json:"solver_steals,omitempty"`
	CrossShard  int64 `json:"solver_cross_shard_deliveries,omitempty"`
	AsyncSweeps int64 `json:"solver_async_sweeps,omitempty"`

	SolveIterations  int64 `json:"solve_iterations"`
	TokensDelivered  int64 `json:"tokens_delivered"`
	CyclesCollapsed  int64 `json:"cycles_collapsed,omitempty"`
	RedundantSkipped int64 `json:"redundant_deliveries_skipped,omitempty"`
	SweepVisited     int64 `json:"sweep_visited,omitempty"`
}

// ParallelSnapshot is BENCH_parallel.json: solver-phase scaling on the
// mega-project tier across worker counts. MaxProcs records GOMAXPROCS on
// the measuring host — on a single-core host the wall-clock rows cannot
// show a speedup no matter how well the engine scales, so benchcheck
// gates its wall-speedup and barrier-scaling assertions on MaxProcs and
// falls back to the ParallelShare bound (Amdahl: share p at 4 workers
// gives 1/(1-p+p/4), so p >= 2/3 implies >= 2x).
type ParallelSnapshot struct {
	MegaModules int `json:"mega_modules"`
	MaxProcs    int `json:"max_procs"`

	Rows []ParallelRow `json:"rows"`

	// SpeedupAt4 is rows[workers=0].SolveWallMS / rows[workers=4].SolveWallMS
	// as measured on this host: the solver-phase speedup of the epoch
	// engine at 4 workers over the sequential engine it replaces.
	// Two effects compound in it — epoch-batched cycle collapse (present
	// even at workers=1, on any host) and actual scan/apply concurrency
	// (needs cores); wall-clock gates on it are meaningful only when
	// MaxProcs >= 4.
	SpeedupAt4 float64 `json:"speedup_at_4,omitempty"`

	// ParallelShare is the fraction of workers=1 solve wall time spent in
	// the parallelizable phases ((scan+winnow + apply) / solve wall); the
	// remainder is the serial tail plus partition/reconciliation residue.
	ParallelShare float64 `json:"parallel_share,omitempty"`
}

// Row returns the row for a worker count, or nil.
func (s *ParallelSnapshot) Row(workers int) *ParallelRow {
	for i := range s.Rows {
		if s.Rows[i].SolverWorkers == workers {
			return &s.Rows[i]
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s ParallelSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Render writes a human-readable scaling table.
func (s ParallelSnapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "mega tier:          %d modules (GOMAXPROCS %d)\n", s.MegaModules, s.MaxProcs)
	fmt.Fprintf(w, "%-8s %12s %10s %10s %10s %8s %8s %12s %7s %12s\n",
		"workers", "solve ms", "scan ms", "apply ms", "tail ms", "epochs", "steals", "cross-shard", "sweeps", "swept")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-8d %12.1f %10.1f %10.1f %10.1f %8d %8d %12d %7d %12d\n",
			r.SolverWorkers, r.SolveWallMS, r.ScanMS, r.ApplyMS, r.SerialTailMS,
			r.Epochs, r.Steals, r.CrossShard, r.AsyncSweeps, r.SweepVisited)
	}
	if s.SpeedupAt4 > 0 {
		fmt.Fprintf(w, "speedup at 4:       %.2fx\n", s.SpeedupAt4)
	}
	if s.ParallelShare > 0 {
		fmt.Fprintf(w, "parallel share:     %.1f%% of solve wall in the scan+apply phases\n", 100*s.ParallelShare)
	}
}
