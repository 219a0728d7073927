// Package experiments reproduces the paper's evaluation (§5): it runs the
// approximate-interpretation + static-analysis pipeline over the corpus and
// computes the data behind every table and figure — Table 1 (benchmark
// inventory), Figures 4–7 (call edges, reachable functions, resolved and
// monomorphic call sites), Table 2 (recall/precision against dynamic call
// graphs), Table 3 (running times), the vulnerability-reachability study,
// hint statistics, and the §4 relational-vs-name-only ablation.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/cache"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/fault"
	"repro/internal/hints"
	"repro/internal/interp"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/static"
)

// Outcome is the full evaluation record for one benchmark.
type Outcome struct {
	Name  string
	Stats corpus.Stats

	HintCount    int
	VisitedRatio float64

	ApproxTime   time.Duration
	BaselineTime time.Duration
	ExtendedTime time.Duration

	Base callgraph.Metrics
	Ext  callgraph.Metrics

	HasDynCG bool
	DynEdges int
	BaseAcc  callgraph.Accuracy
	ExtAcc   callgraph.Accuracy

	// Faults are the contained failures across this benchmark's phases;
	// DegradedModules are the modules whose hints were dropped for them
	// (baseline-only fallback). Both empty on a healthy run.
	Faults          []fault.Record
	DegradedModules []string

	// Perf records the work this evaluation did: one project, the
	// pipeline's solver counters, phase times and faults, the precomputed
	// ablation solve, and the modules re-analyzed on an outcome-cache
	// miss. An outcome-cache hit did no work and counts only its project.
	// Parse and persistent-cache counts belong to the project and the
	// store; the driver that owns them adds them (OwnedCounters).
	Perf perf.Snapshot

	// hints is the pre-analysis hint set of a clean run that was not
	// served from the outcome cache; the ablation and §6 extension arms
	// reuse it instead of pre-analyzing the project again.
	hints *hints.Hints

	// Reachable function sets (for the vulnerability study).
	baseReach map[callgraph.FuncID]bool
	extReach  map[callgraph.FuncID]bool

	// Name-only ablation row, precomputed by the main run
	// (Options.WithAblation) so that RunAblationReusing solves nothing.
	// hasAbl only when the run was clean (no faults, no degradation) and
	// the dynamic comparison ran, mirroring RunAblationReusing's own reuse
	// conditions.
	hasAbl   bool
	ablEdges int
	ablMono  float64
	ablPrec  float64
}

// RunBenchmark evaluates one benchmark: pre-analysis, baseline+extended,
// and (if available and requested) the dynamic call graph.
func RunBenchmark(b *corpus.Benchmark, withDyn bool) (*Outcome, error) {
	return runBenchmark(b, Options{WithDynCG: withDyn})
}

// runBenchmark evaluates one benchmark through pipeline.Run, adding the
// corpus statistics, the persistent-cache layers and the precomputed
// ablation row around it.
//
// Robustness: faults contained during the pre-analysis (recovered panics,
// per-item deadline aborts when opts.ApproxDeadline is set, corrupt module
// sources) degrade the faulted modules to baseline-only constraints in the
// static phases and are reported on the Outcome and in its Perf record;
// the benchmark still completes.
func runBenchmark(b *corpus.Benchmark, opts Options) (*Outcome, error) {
	// Whole-outcome reuse: an unchanged project (same content fingerprint,
	// same outcome-shaping options) skips every phase. On a miss, modules
	// about to be re-analyzed are counted and the project's parses are
	// backed by the persistent store, so unchanged files inside a dirty
	// project still skip the parser.
	var cacheFP, hintsCacheKey string
	if opts.Cache != nil {
		cacheFP = cache.ProjectFingerprint(b.Project)
		if cached, ok := loadOutcome(opts.Cache, outcomeKey(cacheFP, opts, b), b); ok {
			cached.Perf.Projects = 1
			return cached, nil
		}
		b.Project.SetParseStore(opts.Cache)
		hintsCacheKey = approxKey(cacheFP, opts)
	}

	out := &Outcome{Name: b.Project.Name, HasDynCG: b.HasDynCG}
	out.Perf.Projects = 1
	if opts.Cache != nil {
		out.Perf.DeltaModulesRean = int64(len(b.Project.Files))
	}

	st, err := corpus.ComputeStats(b)
	if err != nil {
		return nil, err
	}
	out.Stats = st

	cfg := pipeline.Config{
		Approx:        opts.approxOptions(),
		SolverWorkers: opts.SolverWorkers,
		WithDynCG:     opts.WithDynCG && b.HasDynCG,
		DynCG:         dyncg.Options{Deadline: opts.DynCGDeadline},
	}
	// The pre-analysis may come from the hint-set artifact layer (hit when
	// the project is unchanged but a static/dyncg option invalidated the
	// outcome record). Only fault-free pre-analyses are ever cached, so a
	// hit implies no degraded modules.
	if hintsCacheKey != "" {
		if rec, h, ok := loadApprox(opts.Cache, hintsCacheKey); ok {
			cfg.PreAnalysis = &approx.Result{Hints: h}
			out.HintCount = rec.HintCount
			out.VisitedRatio = rec.VisitedRatio
			out.ApproxTime = time.Duration(rec.DurationNS)
		}
	}
	res, err := pipeline.Run(b.Project, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Project.Name, err)
	}
	if cfg.PreAnalysis == nil {
		out.HintCount = res.Approx.Hints.Count()
		out.VisitedRatio = res.Approx.VisitedRatio()
		out.ApproxTime = res.Approx.Duration
		if hintsCacheKey != "" && len(res.Approx.Faults) == 0 {
			storeApprox(opts.Cache, hintsCacheKey, out.HintCount, out.VisitedRatio, out.ApproxTime, res.Approx.Hints)
		}
	}

	out.Perf.Add(res.Perf)
	base, ext := res.Baseline, res.Extended
	out.Faults = res.Faults
	out.DegradedModules = res.DegradedModules
	clean := len(out.Faults) == 0 && len(out.DegradedModules) == 0
	if clean {
		out.hints = res.Approx.Hints
	}
	out.BaselineTime = base.Duration
	out.Base = base.Metrics()
	out.baseReach = base.Graph.Reachable(base.MainEntries)
	out.ExtendedTime = ext.Duration
	out.Ext = ext.Metrics()
	out.extReach = ext.Graph.Reachable(ext.MainEntries)

	if res.Dynamic != nil {
		out.DynEdges = res.Dynamic.Graph.NumEdges()
		out.BaseAcc = res.BaselineAccuracy
		out.ExtAcc = res.ExtendedAccuracy
		if opts.WithAblation && clean {
			if err := out.precomputeAblation(b, res, opts.SolverWorkers); err != nil {
				return nil, fmt.Errorf("%s: ablation: %w", b.Project.Name, err)
			}
		}
	}
	// Cache only clean runs: a faulted or degraded outcome reflects this
	// run's containment decisions, not the project's content, and must
	// never be served to a later run.
	if opts.Cache != nil && clean {
		storeOutcome(opts.Cache, outcomeKey(cacheFP, opts, b), out)
	}
	return out, nil
}

// precomputeAblation fills the §4 name-only row of a clean outcome (see
// Options.WithAblation). Without [DPW] write hints the two arms inject
// identical constraints, so the row equals the relational columns and
// needs no solve.
func (out *Outcome) precomputeAblation(b *corpus.Benchmark, res *pipeline.Outcome, solverWorkers int) error {
	h := res.Approx.Hints
	if !static.WriteHintsApply(h) {
		out.ablEdges, out.ablMono, out.ablPrec = out.Ext.CallEdges, out.Ext.MonomorphicPct, out.ExtAcc.Precision
	} else {
		abl, err := static.Analyze(b.Project, static.Options{
			Mode: static.AblationNameOnly, Hints: h, SolverWorkers: solverWorkers,
		})
		if err != nil {
			return err
		}
		out.Perf.Add(static.Snapshot(nil, abl))
		out.ablEdges = abl.Graph.NumEdges()
		out.ablMono = abl.Metrics().MonomorphicPct
		out.ablPrec = callgraph.CompareWithDynamic(abl.Graph, res.Dynamic.Graph).Precision
	}
	out.hasAbl = true
	return nil
}

// Options configures a corpus evaluation run.
type Options struct {
	// WithDynCG additionally builds dynamic call graphs (where available)
	// and computes recall/precision.
	WithDynCG bool
	// Workers bounds how many benchmarks are evaluated concurrently.
	// Zero or negative means runtime.NumCPU(). Results are identical to a
	// sequential run regardless of the worker count: benchmarks share no
	// state, and outcomes are collected by input position.
	Workers int
	// ApproxDeadline is the per-worklist-item wall-clock deadline of the
	// pre-analysis (0 = unlimited). Items that trip it are aborted, recorded
	// as deadline faults, and their modules degrade to baseline-only hints.
	ApproxDeadline time.Duration
	// DynCGDeadline is the per-entry wall-clock deadline of dynamic
	// call-graph construction (0 = unlimited).
	DynCGDeadline time.Duration
	// WithAblation precomputes the §4 name-only ablation row of each clean
	// dynamic-CG benchmark (one standalone name-only solve when [DPW] write
	// hints apply, none otherwise), so a later RunAblationReusing pass
	// consumes it without solving anything.
	WithAblation bool
	// SolverWorkers is the scan-worker count of the sharded epoch engine
	// that solves each benchmark (see internal/static/parallel.go); values
	// <= 1 run one inline worker. Reports and counters are identical for
	// every value; this multiplies with Workers, so corpus runs usually pick
	// one axis of parallelism, not both.
	SolverWorkers int
	// Cache attaches a persistent artifact store (internal/cache): parses,
	// hint sets, and whole outcomes of fault-free runs are written there
	// keyed by content fingerprints, and later runs reuse whatever still
	// matches. Reports are byte-identical with or without a cache — every
	// artifact key covers the complete input of its artifact, so a hit
	// reconstructs exactly what recomputation would have produced. Nil
	// disables caching.
	Cache *cache.Store

	// wrapHooks wraps the pre-analysis observation hooks of every pipeline
	// run this evaluation starts (see approx.Options.WrapHooks); the
	// fault-injection tests use it to make one module's pre-analysis panic.
	wrapHooks func(interp.Hooks) interp.Hooks
}

// approxOptions are the pre-analysis options of every pipeline run this
// evaluation starts.
func (o Options) approxOptions() approx.Options {
	return approx.Options{Deadline: o.ApproxDeadline, WrapHooks: o.wrapHooks}
}

// RunCorpus evaluates the given benchmarks over a worker pool sized to the
// machine (runtime.NumCPU()), preserving input order in the results. Use
// RunCorpusOpts to pick the worker count explicitly.
func RunCorpus(bs []*corpus.Benchmark, withDyn bool) ([]*Outcome, error) {
	return RunCorpusOpts(bs, Options{WithDynCG: withDyn})
}

// RunCorpusOpts evaluates the given benchmarks with explicit options. The
// returned outcomes are positionally aligned with bs, so reports rendered
// from them are byte-identical to a sequential (Workers: 1) run.
func RunCorpusOpts(bs []*corpus.Benchmark, opts Options) ([]*Outcome, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(bs) {
		workers = len(bs)
	}
	outs := make([]*Outcome, len(bs))
	if workers <= 1 {
		for i, b := range bs {
			o, err := runBenchmark(b, opts)
			if err != nil {
				return nil, err
			}
			outs[i] = o
		}
		return outs, nil
	}

	errs := make([]error, len(bs))
	var failed atomic.Bool
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o, err := runBenchmark(bs[i], opts)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				outs[i] = o
			}
		}()
	}
	for i := range bs {
		if failed.Load() {
			break // stop dispatching; in-flight benchmarks finish
		}
		work <- i
	}
	close(work)
	wg.Wait()
	// Report the lowest-index failure, matching what a sequential run
	// would have surfaced first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// OwnedCounters returns the counters that belong to a run's owner rather
// than to any one evaluation: the parse counts and parse wall time of the
// projects in bs, whose caches every stage of the run shares, and the
// counters of store (nil: none). Add them to the outcomes' Perf records to
// total a run.
func OwnedCounters(bs []*corpus.Benchmark, store *cache.Store) perf.Snapshot {
	var s perf.Snapshot
	var wall time.Duration
	for _, b := range bs {
		parses, hits := b.Project.ParseCounts()
		s.Parses += parses
		s.ParseCacheHits += hits
		wall += b.Project.ParseWall()
	}
	s.AddPhase(perf.PhaseParse, wall)
	if store != nil {
		s.CacheHits, s.CacheMisses, s.CacheBytesWritten = store.Stats()
	}
	return s
}

// Summary aggregates a corpus run the way the paper's §5 summary boxes do.
type Summary struct {
	Projects int

	// Average per-project percentage increases (paper: +55.1% call edges,
	// +21.8% reachable functions).
	PctMoreCallEdges float64
	PctMoreReachable float64
	// Average percentage-point deltas (paper: +17.7 resolved, −1.5
	// monomorphic).
	DeltaResolvedPts    float64
	DeltaMonomorphicPts float64

	// Hint statistics (paper: 0–15,036, median 1,492).
	HintsMin, HintsMax, HintsMedian int
	// Average fraction of functions visited by approximate interpretation
	// (paper: ~60%).
	AvgVisitedRatio float64

	// Recall/precision averages over the dyn-CG subset (paper Table 2:
	// recall 75.9% → 88.1%, precision −1.5 points).
	DynProjects   int
	AvgRecallBase float64
	AvgRecallExt  float64
	AvgPrecBase   float64
	AvgPrecExt    float64
}

// Aggregate computes the summary statistics over a corpus run.
func Aggregate(outs []*Outcome) Summary {
	var s Summary
	s.Projects = len(outs)
	var hintCounts []int
	for _, o := range outs {
		if o.Base.CallEdges > 0 {
			s.PctMoreCallEdges += 100 * float64(o.Ext.CallEdges-o.Base.CallEdges) / float64(o.Base.CallEdges)
		}
		if o.Base.ReachableFunctions > 0 {
			s.PctMoreReachable += 100 * float64(o.Ext.ReachableFunctions-o.Base.ReachableFunctions) / float64(o.Base.ReachableFunctions)
		}
		s.DeltaResolvedPts += o.Ext.ResolvedPct - o.Base.ResolvedPct
		s.DeltaMonomorphicPts += o.Ext.MonomorphicPct - o.Base.MonomorphicPct
		s.AvgVisitedRatio += o.VisitedRatio
		hintCounts = append(hintCounts, o.HintCount)
		if o.HasDynCG && o.DynEdges > 0 {
			s.DynProjects++
			s.AvgRecallBase += o.BaseAcc.Recall
			s.AvgRecallExt += o.ExtAcc.Recall
			s.AvgPrecBase += o.BaseAcc.Precision
			s.AvgPrecExt += o.ExtAcc.Precision
		}
	}
	n := float64(len(outs))
	if n > 0 {
		s.PctMoreCallEdges /= n
		s.PctMoreReachable /= n
		s.DeltaResolvedPts /= n
		s.DeltaMonomorphicPts /= n
		s.AvgVisitedRatio /= n
	}
	if s.DynProjects > 0 {
		d := float64(s.DynProjects)
		s.AvgRecallBase /= d
		s.AvgRecallExt /= d
		s.AvgPrecBase /= d
		s.AvgPrecExt /= d
	}
	if len(hintCounts) > 0 {
		sort.Ints(hintCounts)
		s.HintsMin = hintCounts[0]
		s.HintsMax = hintCounts[len(hintCounts)-1]
		s.HintsMedian = hintCounts[len(hintCounts)/2]
	}
	return s
}

// VulnResult is the §5 vulnerability-reachability study.
type VulnResult struct {
	TotalVulns        int
	ReachableBaseline int
	ReachableExtended int
	ReachableFnsBase  int
	ReachableFnsExt   int
}

// VulnStudy computes vulnerability reachability over already-evaluated
// outcomes, pairing each with its benchmark's advisory set.
func VulnStudy(bs []*corpus.Benchmark, outs []*Outcome) (VulnResult, error) {
	var vr VulnResult
	byName := map[string]*Outcome{}
	for _, o := range outs {
		byName[o.Name] = o
	}
	for _, b := range bs {
		o := byName[b.Project.Name]
		if o == nil {
			continue
		}
		vulns, err := corpus.Vulnerabilities(b)
		if err != nil {
			return vr, err
		}
		vr.TotalVulns += len(vulns)
		for _, v := range vulns {
			if o.baseReach[v.Func] {
				vr.ReachableBaseline++
			}
			if o.extReach[v.Func] {
				vr.ReachableExtended++
			}
		}
		vr.ReachableFnsBase += o.Base.ReachableFunctions
		vr.ReachableFnsExt += o.Ext.ReachableFunctions
	}
	return vr, nil
}

// AblationOutcome compares the relational [DPW] rule with the §4 name-only
// strawman on one benchmark.
type AblationOutcome struct {
	Name                  string
	RelationalEdges       int
	NameOnlyEdges         int
	RelationalMonomorphic float64
	NameOnlyMonomorphic   float64
	RelationalPrecision   float64 // vs dynamic CG, when available
	NameOnlyPrecision     float64

	// Perf records the work this row did beyond the corpus run it reused.
	Perf perf.Snapshot
}

// RunAblationReusing evaluates the §4 ablation, reusing the relational
// column from an already-computed outcome of the same benchmark. The main
// corpus run's extended analysis solves the exact same constraint system as
// the ablation's relational arm (hints, no degradation), so re-solving it
// here would repeat the most expensive fixpoint of the ablation; the
// incremental-equivalence tests assert the two paths agree corpus-wide.
// When the outcome also carries the name-only row (Options.WithAblation),
// the whole row is reused, and otherwise its hint set, when it kept one,
// spares the pre-analysis. Falls back to RunAblation (both arms from
// scratch) when prior is nil, is for a different project, saw contained
// faults or degraded modules (its extended graph then differs from the
// clean relational arm), or lacks the dynamic-accuracy comparison the
// ablation table needs.
func RunAblationReusing(b *corpus.Benchmark, prior *Outcome) (*AblationOutcome, error) {
	if prior == nil || prior.Name != b.Project.Name ||
		len(prior.Faults) > 0 || len(prior.DegradedModules) > 0 ||
		(b.HasDynCG && prior.DynEdges == 0) {
		return RunAblation(b)
	}
	out := &AblationOutcome{
		Name:                  b.Project.Name,
		RelationalEdges:       prior.Ext.CallEdges,
		RelationalMonomorphic: prior.Ext.MonomorphicPct,
		RelationalPrecision:   prior.ExtAcc.Precision,
	}
	// The main run may have precomputed the name-only row
	// (Options.WithAblation); then the whole ablation row costs nothing,
	// not even a pre-analysis.
	if prior.hasAbl {
		out.NameOnlyEdges = prior.ablEdges
		out.NameOnlyMonomorphic = prior.ablMono
		out.NameOnlyPrecision = prior.ablPrec
		return out, nil
	}
	h, degrade := prior.hints, map[string]bool(nil)
	if h == nil {
		ar, err := pipeline.PreAnalyze(b.Project, approx.Options{})
		if err != nil {
			return nil, err
		}
		out.Perf.AddPhase(perf.PhaseApprox, ar.Duration)
		h, degrade = ar.Hints, ar.FaultedModules()
	}
	// Without [DPW] write hints the two ablation arms inject identical
	// constraints, so the name-only column equals the relational one and
	// needs no solve of its own.
	if !static.WriteHintsApply(h) {
		out.NameOnlyEdges = out.RelationalEdges
		out.NameOnlyMonomorphic = out.RelationalMonomorphic
		out.NameOnlyPrecision = out.RelationalPrecision
		return out, nil
	}
	var dyn *callgraph.Graph
	if b.HasDynCG {
		dr, built, err := pipeline.DynamicGraph(b.Project, dyncg.Options{})
		if err != nil {
			return nil, err
		}
		if built {
			out.Perf.AddPhase(perf.PhaseDynCG, dr.Duration)
		}
		dyn = dr.Graph
	}
	if err := nameOnlyRow(out, b, h, degrade, dyn); err != nil {
		return nil, err
	}
	return out, nil
}

// RunAblation evaluates the §4 ablation on a benchmark: the relational arm
// is pipeline.Run's extended analysis, the name-only arm re-solves with the
// same (degraded) hints under AblationNameOnly.
func RunAblation(b *corpus.Benchmark) (*AblationOutcome, error) {
	return runAblation(b, Options{})
}

func runAblation(b *corpus.Benchmark, opts Options) (*AblationOutcome, error) {
	res, err := pipeline.Run(b.Project, pipeline.Config{
		Approx:    opts.approxOptions(),
		WithDynCG: b.HasDynCG,
	})
	if err != nil {
		return nil, err
	}
	rel := res.Extended.Metrics()
	out := &AblationOutcome{
		Name:                  b.Project.Name,
		RelationalEdges:       rel.CallEdges,
		NameOnlyEdges:         rel.CallEdges,
		RelationalMonomorphic: rel.MonomorphicPct,
		NameOnlyMonomorphic:   rel.MonomorphicPct,
		RelationalPrecision:   res.ExtendedAccuracy.Precision,
		NameOnlyPrecision:     res.ExtendedAccuracy.Precision,
		Perf:                  res.Perf,
	}
	// Only [DPW] write hints distinguish the two arms; without them the
	// name-only system is the relational one.
	if static.WriteHintsApply(res.Approx.Hints) {
		var dyn *callgraph.Graph
		if res.Dynamic != nil {
			dyn = res.Dynamic.Graph
		}
		if err := nameOnlyRow(out, b, res.Approx.Hints, res.Approx.FaultedModules(), dyn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nameOnlyRow solves the name-only arm with hints h, degraded like the
// relational arm, and fills its columns and solver counters of out; the
// precision column only when a dynamic graph is given.
func nameOnlyRow(out *AblationOutcome, b *corpus.Benchmark, h *hints.Hints, degrade map[string]bool, dyn *callgraph.Graph) error {
	abl, err := static.Analyze(b.Project, static.Options{
		Mode: static.AblationNameOnly, Hints: h, DegradeFiles: degrade,
	})
	if err != nil {
		return err
	}
	out.Perf.Add(static.Snapshot(nil, abl))
	out.NameOnlyEdges = abl.Graph.NumEdges()
	out.NameOnlyMonomorphic = abl.Metrics().MonomorphicPct
	if dyn != nil {
		out.NameOnlyPrecision = callgraph.CompareWithDynamic(abl.Graph, dyn).Precision
	}
	return nil
}

// ScaleRow is one size tier of the scalability study: how analysis cost
// grows with program size (supporting Table 3's "approximate interpretation
// is scalable" claim with a size-vs-time curve).
type ScaleRow struct {
	Tier      string
	Projects  int
	AvgFuncs  float64
	AvgSizeKB float64
	AvgApprox time.Duration
	AvgBase   time.Duration
	AvgExt    time.Duration
}

// Scalability buckets outcomes into size tiers by function count.
func Scalability(outs []*Outcome) []ScaleRow {
	buckets := []struct {
		name     string
		min, max int
	}{
		{"tiny (<100 fns)", 0, 100},
		{"small (100–250)", 100, 250},
		{"medium (250–450)", 250, 450},
		{"large (450+)", 450, 1 << 30},
	}
	rows := make([]ScaleRow, len(buckets))
	for i, b := range buckets {
		rows[i].Tier = b.name
	}
	for _, o := range outs {
		for i, b := range buckets {
			if o.Stats.Functions >= b.min && o.Stats.Functions < b.max {
				r := &rows[i]
				r.Projects++
				r.AvgFuncs += float64(o.Stats.Functions)
				r.AvgSizeKB += float64(o.Stats.CodeSize) / 1024
				r.AvgApprox += o.ApproxTime
				r.AvgBase += o.BaselineTime
				r.AvgExt += o.ExtendedTime
				break
			}
		}
	}
	for i := range rows {
		if n := rows[i].Projects; n > 0 {
			rows[i].AvgFuncs /= float64(n)
			rows[i].AvgSizeKB /= float64(n)
			rows[i].AvgApprox /= time.Duration(n)
			rows[i].AvgBase /= time.Duration(n)
			rows[i].AvgExt /= time.Duration(n)
		}
	}
	return rows
}
