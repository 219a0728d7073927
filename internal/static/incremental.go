package static

import (
	"fmt"
	"time"

	"repro/internal/loc"
	"repro/internal/modules"
)

// AnalyzeBoth runs the baseline analysis and a hint-consuming analysis of
// the same program as one incremental pass: constraints are generated
// once, solved to the baseline fixpoint, the baseline call graph and
// counters are snapshotted there, and then the hint-derived constraints
// ([DPR], [DPW], module-load hints, and the enabled §6 extensions) are
// injected as deltas into the same solver, which resumes to the extended
// fixpoint.
//
// This is sound and exact, not an approximation: the extended constraint
// system of §4 is the baseline system plus additional subset constraints,
// and subset constraints are monotone, so the least fixpoint of the
// resumed system equals the least fixpoint of a from-scratch extended
// solve — the same argument that makes the paper's hints "strictly
// additive". Two details keep the equivalence exact rather than merely
// set-theoretically eventual:
//
//   - hint injection only binds to allocation-site tokens that exist at
//     injection time in a from-scratch run (tokens created by constraint
//     generation). Tokens the baseline solve materializes on the way
//     (native members, Object.create results, …) are filtered out via
//     hintTokenEligible, exactly reproducing the from-scratch behavior of
//     injectHints running before any solving;
//   - the require() native behavior fires once per (callee, token) pair,
//     so dynamic-specifier require sites whose behavior already fired
//     during the baseline phase are retro-linked to their module hints by
//     injectModuleHintDeltas.
//
// opts describes the extended run and must name a hint-consuming mode.
// The returned baseline result is identical to Analyze(Options{Mode:
// Baseline}) — same call graph, metrics, reachability, and solver effort
// counters — and the extended result's call graph, metrics, and
// reachability are identical to a from-scratch Analyze(opts)
// (solver-effort counters in the extended result are cumulative across
// both phases, which is the point: the baseline work is not redone).
func AnalyzeBoth(project *modules.Project, opts Options) (baseline, extended *Result, err error) {
	if opts.Mode == Baseline {
		return nil, nil, fmt.Errorf("static: AnalyzeBoth requires a hint-consuming mode")
	}
	if opts.Hints == nil {
		return nil, nil, fmt.Errorf("static: mode %d requires hints", opts.Mode)
	}
	// Degradation happens before either phase: modules whose pre-analysis
	// faulted contribute only baseline constraints (see Options.DegradeFiles),
	// so the resumed extended solve injects no hint anchored in them.
	opts.Hints = opts.Hints.WithoutFiles(opts.DegradeFiles)

	// Phase 1 — the baseline system, exactly as Analyze(Baseline) runs it.
	// Constraint generation is mode-independent and solve-time behaviors
	// consult a.opts, so solving with baseline options up to the first
	// fixpoint reproduces the standalone baseline analysis bit for bit.
	start := time.Now()
	a := newAnalyzer(project, Options{Mode: Baseline, SolverWorkers: opts.SolverWorkers,
		Provenance: opts.Provenance, reference: opts.reference})
	if err := a.generate(); err != nil {
		return nil, nil, err
	}
	preSolveTokens := len(a.tokens)
	// Copy substitution before the baseline solve is safe for the later
	// delta phase too: every destination the injected hints (and the eval
	// code they generate) can address — dynamic-read variables, property and
	// prototype variables, call results, load destinations, module-scope
	// bindings — is protected, so substituted variables never gain new
	// in-flows. The standalone baseline path runs the same pass at the same
	// point, keeping the returned baseline result bit-identical to it.
	a.s.substituteCopies()
	baseSolveStart := time.Now()
	a.s.solve()
	baseSolveWall := time.Since(baseSolveStart)
	baseStructure := a.s.structure()
	baseParallel := a.s.parallelStats()
	cp := a.s.checkpoint()
	postSolveTokens := len(a.tokens)
	entries := a.mainEntries()
	baseline = &Result{
		Graph:           a.cg.Clone(),
		MainEntries:     entries,
		NumVars:         cp.nVars,
		NumTokens:       postSolveTokens,
		SolveIterations: cp.iterations,
		TokensDelivered: cp.tokensDelivered,
		Structure:       baseStructure,
		Parallel:        baseParallel,
		SolveWall:       baseSolveWall,
		AnalyzedModules: len(a.progs),
		Duration:        time.Since(start),
		Faults:          a.faults,
	}

	// Phase 2 — switch to the extended options and inject the deltas.
	deltaStart := time.Now()
	a.opts = opts
	if opts.EvalHints {
		a.genEvalHints()
	}
	a.hintTokenEligible = func(t Token) bool {
		return int(t) < preSolveTokens || int(t) >= postSolveTokens
	}
	a.injectHints()
	a.injectModuleHintDeltas()
	deltaSolveStart := time.Now()
	a.s.solve()
	deltaSolveWall := time.Since(deltaSolveStart)

	iters, delivered := a.s.stats()

	extended = &Result{
		Graph:           a.cg,
		MainEntries:     entries,
		NumVars:         a.s.numVars(),
		NumTokens:       len(a.tokens),
		SolveIterations: iters,
		TokensDelivered: delivered,
		Structure:       a.s.structure(),
		Parallel:        a.s.parallelStats(),
		SolveWall:       deltaSolveWall,
		AnalyzedModules: len(a.progs),
		Duration:        time.Since(deltaStart),
		Faults:          a.faults,
		DegradedModules: degradedList(opts.DegradeFiles),
	}
	if a.s.prov != nil {
		extended.Provenance = newProvenance(a)
	}
	return baseline, extended, nil
}

// injectModuleHintDeltas applies module-load hints to dynamic-specifier
// require sites whose require behavior already fired (with module hints
// disabled) during the baseline solve. Sites whose behavior fires during
// the resumed solve consume the hints directly in requireCall; linking is
// idempotent, so a site may safely take both paths.
func (a *analyzer) injectModuleHintDeltas() {
	if a.opts.Mode == Baseline || a.opts.Hints == nil {
		return
	}
	for _, mh := range a.opts.Hints.ModuleHints() {
		if result, ok := a.dynRequires[mh.Site]; ok {
			prev := a.pushCtx(RuleModuleHint, mh.Site, mh.Path)
			a.linkRequire(mh.Site, result, mh.Path)
			a.popCtx(prev)
		}
	}
}

// hintSiteToken resolves an allocation site to its token for hint
// injection, honoring the incremental eligibility filter (see AnalyzeBoth).
func (a *analyzer) hintSiteToken(site loc.Loc) (Token, bool) {
	t, ok := a.siteToken[site]
	if !ok {
		return 0, false
	}
	if a.hintTokenEligible != nil && !a.hintTokenEligible(t) {
		return 0, false
	}
	return t, true
}
