// Package perf defines the one counter record of the analysis pipeline.
// A Snapshot holds the solver effort, structure and epoch counters, the
// parse and persistent-cache counts, the phase wall times and the
// contained faults of some piece of work. Nothing here is global: the
// objects doing the work keep their own numbers (static.Result,
// modules.Project, cache.Store, pipeline.Outcome), each piece of work
// converts its numbers into a Snapshot once, and the driver that owns the
// run sums them with Add. A BENCH_*.json file is a Bench: labelled
// Snapshot rows.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Phase identifies a pipeline stage for wall-time accounting.
type Phase int

// Pipeline phases, in execution order.
const (
	PhaseParse Phase = iota
	PhaseApprox
	PhaseBaseline
	PhaseExtended
	PhaseDynCG
	numPhases
)

var phaseNames = [numPhases]string{"parse", "approx", "baseline", "extended", "dyncg"}

func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Snapshot is the counter record of one piece of work — an analysis, an
// evaluated benchmark, a whole corpus run — and one row of a BENCH file.
// Label, Workers and SolverWorkers describe the run; everything else is a
// count or a time that Add sums.
type Snapshot struct {
	Label         string  `json:"label,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	SolverWorkers int     `json:"solver_workers,omitempty"`
	WallMS        float64 `json:"wall_ms,omitempty"`
	// SolveWallMS is the wall time spent inside solver fixpoint
	// propagation (static.Result.SolveWall).
	SolveWallMS float64 `json:"solve_wall_ms,omitempty"`

	Projects       int64 `json:"projects"`
	Parses         int64 `json:"parses"`
	ParseCacheHits int64 `json:"parse_cache_hits,omitempty"`
	// ParseHitRate is derived from Parses and ParseCacheHits; Add keeps
	// it current.
	ParseHitRate float64 `json:"parse_cache_hit_rate,omitempty"`

	SolveIterations int64 `json:"solve_iterations"`
	TokensDelivered int64 `json:"tokens_delivered"`

	// Incremental split of AnalyzeBoth's effort: reaching the baseline
	// fixpoint vs. the resumed [DPR]/[DPW] delta solve. Their sum is part
	// of SolveIterations/TokensDelivered.
	SolveIterationsBase  int64 `json:"solve_iterations_baseline,omitempty"`
	SolveIterationsDelta int64 `json:"solve_iterations_delta,omitempty"`
	TokensDeliveredBase  int64 `json:"tokens_delivered_baseline,omitempty"`
	TokensDeliveredDelta int64 `json:"tokens_delivered_delta,omitempty"`

	// Robustness: contained failures (recovered panics, deadline/step
	// aborts, corrupt files) and modules degraded to baseline-only hints.
	FaultsContained int64 `json:"faults_contained,omitempty"`
	ModulesDegraded int64 `json:"modules_degraded,omitempty"`

	// Cycle-collapse activity of the subset solver: unification events,
	// variables absorbed into representatives (including offline copy
	// substitution, also reported on its own), edges dropped as duplicate
	// or self under condensation, and deliveries short-circuited because
	// the representative had already processed the token.
	CyclesCollapsed   int64 `json:"cycles_collapsed,omitempty"`
	VarsUnified       int64 `json:"vars_unified,omitempty"`
	CopiesSubstituted int64 `json:"copies_substituted,omitempty"`
	EdgesDeduped      int64 `json:"edges_deduped,omitempty"`
	RedundantSkipped  int64 `json:"redundant_deliveries_skipped,omitempty"`
	// SweepVisited is the variables plus edges SCC sweeps traversed
	// (deterministic, identical at every solver-worker count).
	SweepVisited int64 `json:"sweep_visited,omitempty"`

	// Epoch-engine activity (zero when no unifying solve ran).
	// SolverEpochs, SolverCrossShard, and SolverAsyncSweeps are
	// deterministic for a given worker count; SolverSteals and the phase
	// times (scan+winnow / parallel apply / serial tail / sweep overlap)
	// are scheduling-dependent diagnostics.
	SolverEpochs         int64   `json:"solver_epochs,omitempty"`
	SolverSteals         int64   `json:"solver_steals,omitempty"`
	SolverCrossShard     int64   `json:"solver_cross_shard_deliveries,omitempty"`
	SolverAsyncSweeps    int64   `json:"solver_async_sweeps,omitempty"`
	SolverScanMS         float64 `json:"solver_scan_ms,omitempty"`
	SolverApplyMS        float64 `json:"solver_apply_ms,omitempty"`
	SolverTailMS         float64 `json:"solver_serial_tail_ms,omitempty"`
	SolverSweepOverlapMS float64 `json:"solver_sweep_overlap_ms,omitempty"`

	// Persistent-cache activity (zero when no cache store is attached):
	// artifact loads served, loads missed (corrupt and stale entries
	// included), bytes written, and modules re-analyzed because their
	// project's outcome was not cached.
	CacheHits         int64 `json:"cache_hits,omitempty"`
	CacheMisses       int64 `json:"cache_misses,omitempty"`
	CacheBytesWritten int64 `json:"cache_bytes_written,omitempty"`
	DeltaModulesRean  int64 `json:"delta_modules_reanalyzed,omitempty"`

	// PhaseMS is the wall time per Phase, keyed by its name.
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// AddPhase accrues wall time to a phase.
func (s *Snapshot) AddPhase(p Phase, d time.Duration) {
	if s.PhaseMS == nil {
		s.PhaseMS = map[string]float64{}
	}
	s.PhaseMS[p.String()] += ms(d)
}

// Add sums o's counts and times into s. The run description (Label,
// Workers, SolverWorkers) is left alone.
func (s *Snapshot) Add(o Snapshot) {
	s.WallMS += o.WallMS
	s.SolveWallMS += o.SolveWallMS
	s.Projects += o.Projects
	s.Parses += o.Parses
	s.ParseCacheHits += o.ParseCacheHits
	s.SolveIterations += o.SolveIterations
	s.TokensDelivered += o.TokensDelivered
	s.SolveIterationsBase += o.SolveIterationsBase
	s.SolveIterationsDelta += o.SolveIterationsDelta
	s.TokensDeliveredBase += o.TokensDeliveredBase
	s.TokensDeliveredDelta += o.TokensDeliveredDelta
	s.FaultsContained += o.FaultsContained
	s.ModulesDegraded += o.ModulesDegraded
	s.CyclesCollapsed += o.CyclesCollapsed
	s.VarsUnified += o.VarsUnified
	s.CopiesSubstituted += o.CopiesSubstituted
	s.EdgesDeduped += o.EdgesDeduped
	s.RedundantSkipped += o.RedundantSkipped
	s.SweepVisited += o.SweepVisited
	s.SolverEpochs += o.SolverEpochs
	s.SolverSteals += o.SolverSteals
	s.SolverCrossShard += o.SolverCrossShard
	s.SolverAsyncSweeps += o.SolverAsyncSweeps
	s.SolverScanMS += o.SolverScanMS
	s.SolverApplyMS += o.SolverApplyMS
	s.SolverTailMS += o.SolverTailMS
	s.SolverSweepOverlapMS += o.SolverSweepOverlapMS
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytesWritten += o.CacheBytesWritten
	s.DeltaModulesRean += o.DeltaModulesRean
	for k, v := range o.PhaseMS {
		if s.PhaseMS == nil {
			s.PhaseMS = map[string]float64{}
		}
		s.PhaseMS[k] += v
	}
	s.ParseHitRate = 0
	if total := s.Parses + s.ParseCacheHits; total > 0 {
		s.ParseHitRate = float64(s.ParseCacheHits) / float64(total)
	}
}

// Deterministic returns the counters the epoch engine reproduces exactly
// at every solver-worker count: effort, structure, epochs, cross-shard
// deliveries and async sweep launches. Two rows of one solve that differ
// here mean scheduling leaked into the result.
func (s Snapshot) Deterministic() [8]int64 {
	return [8]int64{s.SolveIterations, s.TokensDelivered, s.CyclesCollapsed,
		s.RedundantSkipped, s.SweepVisited, s.SolverEpochs, s.SolverCrossShard, s.SolverAsyncSweeps}
}

// Render writes a human-readable report.
func (s Snapshot) Render(w io.Writer) {
	if s.Workers > 0 {
		fmt.Fprintf(w, "workers:            %d\n", s.Workers)
	}
	if s.SolverWorkers > 0 {
		fmt.Fprintf(w, "solver workers:     %d\n", s.SolverWorkers)
	}
	if s.WallMS > 0 {
		fmt.Fprintf(w, "wall time:          %.1f ms\n", s.WallMS)
	}
	fmt.Fprintf(w, "projects:           %d\n", s.Projects)
	fmt.Fprintf(w, "parses:             %d (cache hits %d, hit rate %.1f%%)\n",
		s.Parses, s.ParseCacheHits, 100*s.ParseHitRate)
	fmt.Fprintf(w, "solve iterations:   %d\n", s.SolveIterations)
	fmt.Fprintf(w, "tokens delivered:   %d\n", s.TokensDelivered)
	if s.SolveWallMS > 0 {
		fmt.Fprintf(w, "solve wall:         %.1f ms\n", s.SolveWallMS)
	}
	if s.SolveIterationsBase+s.SolveIterationsDelta > 0 {
		fmt.Fprintf(w, "  incremental:      baseline %d iters / %d tokens, resumed delta %d iters / %d tokens\n",
			s.SolveIterationsBase, s.TokensDeliveredBase, s.SolveIterationsDelta, s.TokensDeliveredDelta)
	}
	if s.FaultsContained+s.ModulesDegraded > 0 {
		fmt.Fprintf(w, "faults contained:   %d (modules degraded to baseline-only hints: %d)\n",
			s.FaultsContained, s.ModulesDegraded)
	}
	if s.VarsUnified+s.EdgesDeduped+s.RedundantSkipped > 0 {
		fmt.Fprintf(w, "cycle collapse:     %d cycles, %d vars unified (%d by copy substitution), %d edges deduped, %d redundant deliveries skipped\n",
			s.CyclesCollapsed, s.VarsUnified, s.CopiesSubstituted, s.EdgesDeduped, s.RedundantSkipped)
	}
	if s.SweepVisited > 0 {
		fmt.Fprintf(w, "cycle sweeps:       %d vars+edges visited\n", s.SweepVisited)
	}
	if s.SolverEpochs > 0 {
		fmt.Fprintf(w, "parallel solver:    %d epochs, %d steals, %d cross-shard deliveries, %d async sweeps, scan %.1f ms / apply %.1f ms / tail %.1f ms (sweep overlap %.1f ms)\n",
			s.SolverEpochs, s.SolverSteals, s.SolverCrossShard, s.SolverAsyncSweeps,
			s.SolverScanMS, s.SolverApplyMS, s.SolverTailMS, s.SolverSweepOverlapMS)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		rate := 100 * float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
		// One space after the colon: CI greps this line for a fully
		// cached warm run.
		fmt.Fprintf(w, "artifact cache: %d hits / %d misses (%.1f%%), %.1f KB written, %d modules re-analyzed\n",
			s.CacheHits, s.CacheMisses, rate, float64(s.CacheBytesWritten)/1024, s.DeltaModulesRean)
	}
	if s.PhaseMS != nil {
		for p := Phase(0); p < numPhases; p++ {
			fmt.Fprintf(w, "%-9s phase:     %.1f ms\n", p.String(), s.PhaseMS[p.String()])
		}
	}
}

// Bench is the content of a BENCH_*.json file: the measuring host's
// GOMAXPROCS plus one labelled Snapshot per measured run.
//
//	corpus  one row, "corpus" (cmd/evaluate -all -benchjson)
//	mega    one row per solver-worker count, "workers=N" (RunMegaBench)
//	delta   "cold", "warm", "edit-warm", "edit-scratch" (RunDeltaBench)
type Bench struct {
	MaxProcs int `json:"max_procs"`
	// ReportsIdentical is the delta benchmark's in-harness assertion:
	// the warm run rendered byte-identical reports to the cold run, and
	// the edit-warm run to a from-scratch run of the edited corpus.
	// RunDeltaBench fails before producing a Bench when either differs.
	ReportsIdentical bool       `json:"reports_identical,omitempty"`
	Rows             []Snapshot `json:"rows"`
}

// MegaLabel is the row label of the mega-tier run at a solver-worker
// count.
func MegaLabel(workers int) string { return fmt.Sprintf("workers=%d", workers) }

// Row returns the row with the given label, or nil.
func (b Bench) Row(label string) *Snapshot {
	for i := range b.Rows {
		if b.Rows[i].Label == label {
			return &b.Rows[i]
		}
	}
	return nil
}

// Ratios are the figures derived from a Bench's wall times. Each is zero
// when the rows it needs are missing or have no wall time.
type Ratios struct {
	// SpeedupAt4 is the workers=1 solve wall over the workers=4 one.
	SpeedupAt4 float64
	// ParallelShare is the fraction of the workers=1 solve wall spent in
	// the parallelizable scan+winnow and apply phases; SerialShare the
	// fraction spent outside them.
	ParallelShare float64
	SerialShare   float64
	// BarrierScale is the workers=4 apply+tail wall as a fraction of the
	// workers=1 one.
	BarrierScale float64
	// WarmSpeedup is the cold wall over the warm wall (unchanged corpus);
	// EditSpeedup the cold wall over the edit-warm wall.
	WarmSpeedup float64
	EditSpeedup float64
}

// Ratios computes the derived figures from the rows.
func (b Bench) Ratios() Ratios {
	var r Ratios
	r1, r4 := b.Row(MegaLabel(1)), b.Row(MegaLabel(4))
	if r1 != nil && r1.SolveWallMS > 0 {
		r.ParallelShare = (r1.SolverScanMS + r1.SolverApplyMS) / r1.SolveWallMS
		r.SerialShare = (r1.SolveWallMS - r1.SolverScanMS - r1.SolverApplyMS) / r1.SolveWallMS
		if r4 != nil && r4.SolveWallMS > 0 {
			r.SpeedupAt4 = r1.SolveWallMS / r4.SolveWallMS
		}
	}
	if r1 != nil && r4 != nil && r1.SolverApplyMS+r1.SolverTailMS > 0 {
		r.BarrierScale = (r4.SolverApplyMS + r4.SolverTailMS) / (r1.SolverApplyMS + r1.SolverTailMS)
	}
	if cold := b.Row("cold"); cold != nil {
		if warm := b.Row("warm"); warm != nil && warm.WallMS > 0 {
			r.WarmSpeedup = cold.WallMS / warm.WallMS
		}
		if edit := b.Row("edit-warm"); edit != nil && edit.WallMS > 0 {
			r.EditSpeedup = cold.WallMS / edit.WallMS
		}
	}
	return r
}

// WriteJSON writes the Bench as indented JSON.
func (b Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Render writes every row and the derived figures.
func (b Bench) Render(w io.Writer) {
	fmt.Fprintf(w, "GOMAXPROCS:         %d\n", b.MaxProcs)
	for _, row := range b.Rows {
		fmt.Fprintf(w, "-- %s\n", row.Label)
		row.Render(w)
	}
	r := b.Ratios()
	if r.SpeedupAt4 > 0 {
		fmt.Fprintf(w, "speedup at 4:       %.2fx\n", r.SpeedupAt4)
	}
	if r.ParallelShare > 0 {
		fmt.Fprintf(w, "parallel share:     %.1f%% of solve wall in the scan+apply phases\n", 100*r.ParallelShare)
	}
	if r.WarmSpeedup > 0 {
		fmt.Fprintf(w, "warm speedup:       %.1fx (unchanged corpus vs cold)\n", r.WarmSpeedup)
	}
	if r.EditSpeedup > 0 {
		fmt.Fprintf(w, "edit speedup:       %.1fx (one-file edit, warm cache, vs cold from-scratch)\n", r.EditSpeedup)
	}
	if b.ReportsIdentical {
		fmt.Fprintln(w, "reports identical:  true")
	}
}
