// Package pipeline is the single entry point of the paper's workflow (§5):
// the forced-execution pre-analysis produces hints, the baseline and the
// [DPR]/[DPW]-extended static analyses consume them, and a dynamic call
// graph optionally scores the result.
//
// Run owns every decision the workflow makes, each in one place:
//
//   - the phase order: approximate interpretation, then degradation of the
//     modules whose pre-analysis faulted (their hints are dropped), then
//     the incremental baseline→extended solve (static.AnalyzeBoth, or the
//     caller's resident static.DeltaSession), then the dynamic call graph
//     and its recall/precision comparison;
//   - the per-project memo of the dynamic call graph;
//   - fault aggregation across phases;
//   - the counter record of the work it did (Outcome.Perf).
//
// The differential oracles of internal/fuzz call the stages directly: they
// are the reference side of the checks this package is checked against.
package pipeline

import (
	"fmt"
	"sync/atomic"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/dyncg"
	"repro/internal/fault"
	"repro/internal/modules"
	"repro/internal/perf"
	"repro/internal/static"
)

// Config selects what Run computes and how.
type Config struct {
	// Approx tunes the pre-analysis (deadline, budgets, hook wrapping).
	Approx approx.Options
	// PreAnalysis, when non-nil, is a precomputed pre-analysis of the
	// project's current content (a hint-cache hit, a daemon session's memo,
	// hints read from a file); Run then skips approximate interpretation
	// but still degrades the modules PreAnalysis.Faults name.
	PreAnalysis *approx.Result
	// Session, when non-nil, solves on this resident delta session (whose
	// Project must be the project passed to Run), reusing its memoized
	// fixpoint when no input changed.
	Session *static.DeltaSession

	// Passed through to the extended analysis (see static.Options).
	SolverWorkers   int
	EvalHints       bool
	UnknownArgHints bool
	DisableDPR      bool
	Provenance      bool

	// WithDynCG additionally builds (or reuses) the project's dynamic call
	// graph and compares both static graphs against it.
	WithDynCG bool
	// DynCG tunes dynamic call-graph construction.
	DynCG dyncg.Options
}

// Outcome bundles the results of every phase Run executed.
type Outcome struct {
	Approx   *approx.Result
	Baseline *static.Result
	Extended *static.Result
	// Reused is true when Config.Session served a memoized fixpoint and no
	// solver work was done.
	Reused bool

	// Dynamic and the accuracies are set only with Config.WithDynCG.
	Dynamic          *dyncg.Result
	BaselineAccuracy callgraph.Accuracy
	ExtendedAccuracy callgraph.Accuracy

	// Faults are the contained failures of every phase, in phase order
	// (pre-analysis, static, dynamic). DegradedModules are the modules
	// that fell back to baseline-only constraints because their
	// pre-analysis faulted, sorted. Both are empty on a healthy run.
	Faults          []fault.Record
	DegradedModules []string

	// Perf records the work this run did: the solver counters, the wall
	// time of every phase it ran (the pre-analysis unless given, the
	// solve unless Reused, the dynamic call graph only if this run built
	// it), and the fault and degradation counts.
	Perf perf.Snapshot
}

// Run executes the pipeline on a project.
func Run(project *modules.Project, cfg Config) (*Outcome, error) {
	out := &Outcome{Approx: cfg.PreAnalysis}
	if out.Approx == nil {
		ar, err := PreAnalyze(project, cfg.Approx)
		if err != nil {
			return nil, err
		}
		out.Approx = ar
		out.Perf.AddPhase(perf.PhaseApprox, ar.Duration)
	}
	out.Faults = append(out.Faults, out.Approx.Faults...)

	opts := static.Options{
		Mode:            static.WithHints,
		Hints:           out.Approx.Hints,
		DegradeFiles:    out.Approx.FaultedModules(),
		SolverWorkers:   cfg.SolverWorkers,
		EvalHints:       cfg.EvalHints,
		UnknownArgHints: cfg.UnknownArgHints,
		DisableDPR:      cfg.DisableDPR,
		Provenance:      cfg.Provenance,
	}
	var err error
	if cfg.Session != nil {
		out.Baseline, out.Extended, out.Reused, err = cfg.Session.Analyze(opts)
	} else {
		out.Baseline, out.Extended, err = static.AnalyzeBoth(project, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	if !out.Reused {
		out.Perf.Add(static.Snapshot(out.Baseline, out.Extended))
		out.Perf.AddPhase(perf.PhaseBaseline, out.Baseline.Duration)
		out.Perf.AddPhase(perf.PhaseExtended, out.Extended.Duration)
	}
	out.Faults = append(out.Faults, out.Extended.Faults...)
	out.DegradedModules = out.Extended.DegradedModules

	if cfg.WithDynCG {
		dr, built, err := DynamicGraph(project, cfg.DynCG)
		if err != nil {
			return nil, err
		}
		if built {
			out.Perf.AddPhase(perf.PhaseDynCG, dr.Duration)
		}
		out.Dynamic = dr
		out.BaselineAccuracy = callgraph.CompareWithDynamic(out.Baseline.Graph, dr.Graph)
		out.ExtendedAccuracy = callgraph.CompareWithDynamic(out.Extended.Graph, dr.Graph)
		out.Faults = append(out.Faults, dr.Faults...)
	}
	out.Perf.FaultsContained = int64(len(out.Faults))
	out.Perf.ModulesDegraded = int64(len(out.DegradedModules))
	return out, nil
}

// PreAnalyze runs only the first phase, approximate interpretation. It
// serves callers that need a project's hints but reuse an already-solved
// extended analysis; they account its wall time (Result.Duration) to
// perf.PhaseApprox themselves.
func PreAnalyze(project *modules.Project, opts approx.Options) (*approx.Result, error) {
	ar, err := approx.Run(project, opts)
	if err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	return ar, nil
}

// dynEntry is one memoized dynamic call-graph build.
type dynEntry struct {
	res *dyncg.Result
	err error
}

// dynMemoKey is the modules.Project.Memo key of the project's dynamic call
// graph. The memo lives on the project, so an evaluation that needs the
// graph in several places (accuracy, ablation precision, attribution)
// builds it at most once, and the graph is released with the project.
type dynMemoKey struct{}

// dynBuilds counts actual dynamic call-graph builds (memo misses).
var dynBuilds atomic.Int64

// DynamicGraph returns the project's memoized dynamic call graph, building
// it on first use; built reports whether this call did the build, so that
// exactly one caller accounts its wall time. The options of the first
// caller for a project win; all callers in one evaluation pass the same
// options, so this is only observable when mixing configurations in one
// process.
func DynamicGraph(project *modules.Project, opts dyncg.Options) (*dyncg.Result, bool, error) {
	built := false
	ent := project.Memo(dynMemoKey{}, func() any {
		dynBuilds.Add(1)
		built = true
		res, err := dyncg.Build(project, opts)
		if err != nil {
			return &dynEntry{nil, fmt.Errorf("dyncg: %w", err)}
		}
		return &dynEntry{res, nil}
	}).(*dynEntry)
	return ent.res, built, ent.err
}

// DynamicBuilds reports how many dynamic call graphs have been built (memo
// misses) in this process.
func DynamicBuilds() int64 { return dynBuilds.Load() }
