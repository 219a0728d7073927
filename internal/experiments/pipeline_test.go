package experiments

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/static"
)

// TestDynCGMemoBuildsOnce asserts that one project's dynamic call graph is
// built at most once per evaluation, however many consumers ask for it.
func TestDynCGMemoBuildsOnce(t *testing.T) {
	b := corpus.WithDynCG()[0]
	before := pipeline.DynamicBuilds()
	if _, err := RunBenchmark(b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBenchmark(b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAblation(b); err != nil {
		t.Fatal(err)
	}
	if got := pipeline.DynamicBuilds() - before; got != 1 {
		t.Fatalf("dynamic call graph built %d times, want 1", got)
	}
}

// TestFaultDegradationConsistent injects a hook panic into one module's
// pre-analysis and asserts that every hint-consuming evaluation — the
// corpus run's extended analysis, the ablation's relational arm, the
// extensions' plain variant and pipeline.Run itself — degrades the faulted
// modules the same way: each reports the graph of a from-scratch analysis
// whose hints anchored in those modules were removed, never the graph the
// undegraded hints give.
func TestFaultDegradationConsistent(t *testing.T) {
	const name, module = "mini-router", "/node_modules/routr/index.js"
	wrap := func(h interp.Hooks) interp.Hooks {
		return faultinject.NewInjector(faultinject.Fault{Module: module, Site: faultinject.SitePropRead}).Wrap(h)
	}
	opts := Options{WithDynCG: true, Workers: 1, wrapHooks: wrap}

	b := corpus.ByName(name)
	res, err := pipeline.Run(b.Project, pipeline.Config{
		Approx: opts.approxOptions(), WithDynCG: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulted := res.Approx.FaultedModules()
	if !faulted[module] {
		t.Fatalf("injected fault not attributed to %s: %v", module, res.Approx.Faults)
	}
	want, err := static.Analyze(b.Project, static.Options{
		Mode: static.WithHints, Hints: res.Approx.Hints.WithoutFiles(faulted),
	})
	if err != nil {
		t.Fatal(err)
	}
	undegraded, err := static.Analyze(b.Project, static.Options{Mode: static.WithHints, Hints: res.Approx.Hints})
	if err != nil {
		t.Fatal(err)
	}
	if undegraded.Graph.Equal(want.Graph) {
		t.Fatal("fixture too weak: degradation does not change the extended graph")
	}
	wantM := want.Metrics()
	wantAcc := callgraph.CompareWithDynamic(want.Graph, res.Dynamic.Graph)

	if !res.Extended.Graph.Equal(want.Graph) {
		t.Error("pipeline.Run: extended graph is not the degraded one")
	}
	outs, err := RunCorpusOpts([]*corpus.Benchmark{corpus.ByName(name)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o := outs[0]; o.Ext != wantM || o.ExtAcc != wantAcc || len(o.DegradedModules) == 0 {
		t.Errorf("runBenchmark: ext %+v acc %+v degraded %v, want %+v %+v",
			o.Ext, o.ExtAcc, o.DegradedModules, wantM, wantAcc)
	}
	abl, err := runAblation(corpus.ByName(name), opts)
	if err != nil {
		t.Fatal(err)
	}
	if abl.RelationalEdges != wantM.CallEdges || abl.RelationalMonomorphic != wantM.MonomorphicPct ||
		abl.RelationalPrecision != wantAcc.Precision {
		t.Errorf("RunAblation relational arm: %d edges, %.3f mono, %.3f prec, want %d, %.3f, %.3f",
			abl.RelationalEdges, abl.RelationalMonomorphic, abl.RelationalPrecision,
			wantM.CallEdges, wantM.MonomorphicPct, wantAcc.Precision)
	}
	ext, err := runExtensions(corpus.ByName(name).Project, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ext.EdgesPlain != wantM.CallEdges {
		t.Errorf("RunExtensions plain variant: %d edges, want %d", ext.EdgesPlain, wantM.CallEdges)
	}
}
