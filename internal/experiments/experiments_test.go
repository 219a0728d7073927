package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/static"
)

func slice(t *testing.T, n int) []*corpus.Benchmark {
	t.Helper()
	bs := corpus.WithDynCG()
	if len(bs) < n {
		t.Fatalf("corpus too small: %d", len(bs))
	}
	return bs[:n]
}

func TestRunBenchmark(t *testing.T) {
	b := corpus.ByName("motivating-express")
	o, err := RunBenchmark(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "motivating-express" || !o.HasDynCG {
		t.Errorf("outcome header wrong: %+v", o)
	}
	if o.Stats.Functions == 0 || o.Stats.Modules == 0 {
		t.Error("stats empty")
	}
	if o.HintCount == 0 {
		t.Error("no hints")
	}
	if o.Ext.CallEdges <= o.Base.CallEdges {
		t.Error("no call-edge improvement")
	}
	if o.DynEdges == 0 {
		t.Error("no dynamic edges")
	}
	if o.ExtAcc.Recall < o.BaseAcc.Recall {
		t.Error("recall regressed")
	}
	if o.ApproxTime <= 0 || o.BaselineTime <= 0 || o.ExtendedTime <= 0 {
		t.Error("missing timings")
	}
}

func TestAggregate(t *testing.T) {
	outs, err := RunCorpus(slice(t, 6), true)
	if err != nil {
		t.Fatal(err)
	}
	s := Aggregate(outs)
	if s.Projects != 6 {
		t.Errorf("Projects = %d", s.Projects)
	}
	if s.DynProjects == 0 {
		t.Error("no dyn projects aggregated")
	}
	if s.HintsMax < s.HintsMedian || s.HintsMedian < s.HintsMin {
		t.Errorf("hint ordering broken: %d/%d/%d", s.HintsMin, s.HintsMedian, s.HintsMax)
	}
	if s.AvgVisitedRatio <= 0 || s.AvgVisitedRatio > 1 {
		t.Errorf("visited ratio = %v", s.AvgVisitedRatio)
	}
}

func TestVulnStudyConsistency(t *testing.T) {
	bs := slice(t, 5)
	outs, err := RunCorpus(bs, false)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := VulnStudy(bs, outs)
	if err != nil {
		t.Fatal(err)
	}
	if vr.ReachableBaseline > vr.TotalVulns || vr.ReachableExtended > vr.TotalVulns {
		t.Errorf("reachable exceeds total: %+v", vr)
	}
	if vr.ReachableExtended < vr.ReachableBaseline {
		t.Errorf("hints lost advisory reachability: %+v", vr)
	}
	// Per-slice sums equal whole-slice result.
	var sum VulnResult
	for i := range bs {
		one, err := VulnStudy(bs[i:i+1], outs[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		sum.TotalVulns += one.TotalVulns
		sum.ReachableBaseline += one.ReachableBaseline
		sum.ReachableExtended += one.ReachableExtended
	}
	if sum.TotalVulns != vr.TotalVulns || sum.ReachableBaseline != vr.ReachableBaseline {
		t.Errorf("slice sums disagree: %+v vs %+v", sum, vr)
	}
}

func TestRunAblation(t *testing.T) {
	b := corpus.ByName("motivating-express")
	o, err := RunAblation(b)
	if err != nil {
		t.Fatal(err)
	}
	if o.NameOnlyEdges < o.RelationalEdges {
		t.Errorf("name-only should have at least as many edges: %d vs %d",
			o.NameOnlyEdges, o.RelationalEdges)
	}
	if o.NameOnlyMonomorphic > o.RelationalMonomorphic {
		t.Errorf("name-only should be no more monomorphic: %.1f vs %.1f",
			o.NameOnlyMonomorphic, o.RelationalMonomorphic)
	}
}

// TestAblationReusingMatchesFromScratch checks the reuse path of the §4
// ablation against RunAblation, which solves both arms from scratch: a
// corpus run that precomputes the name-only row (Options.WithAblation),
// consumed by RunAblationReusing, must report the same row field for field
// on every dynamic-CG benchmark (-short: the first three whose hints carry
// [DPW] writes, the only ones whose arms differ). A nil prior and a prior
// of another project fall back to the from-scratch path and must agree too.
func TestAblationReusingMatchesFromScratch(t *testing.T) {
	var other *Outcome
	checked, writeHint, fallbacks := 0, 0, false
	for _, b := range corpus.WithDynCG() {
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			t.Fatalf("%s: approx: %v", b.Project.Name, err)
		}
		hasWrites := static.WriteHintsApply(ar.Hints)
		if testing.Short() && !hasWrites {
			continue
		}
		outs, err := RunCorpusOpts([]*corpus.Benchmark{b}, Options{WithDynCG: true, WithAblation: true})
		if err != nil {
			t.Fatal(err)
		}
		prior := outs[0]
		if !prior.hasAbl {
			t.Fatalf("%s: clean outcome has no precomputed ablation row", b.Project.Name)
		}
		want, err := RunAblation(b)
		if err != nil {
			t.Fatal(err)
		}
		priors := []*Outcome{prior}
		if hasWrites && other != nil && !fallbacks {
			priors = append(priors, nil, other)
			fallbacks = true
		}
		for i, p := range priors {
			got, err := RunAblationReusing(b, p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAblationRow(*got, *want) {
				t.Errorf("%s (prior %d of own/nil/other): reused row %+v, from scratch %+v",
					b.Project.Name, i, *got, *want)
			}
		}
		other = prior
		checked++
		if hasWrites {
			writeHint++
			if testing.Short() && writeHint >= 3 {
				break
			}
		}
	}
	if writeHint == 0 || !fallbacks {
		t.Fatalf("checked %d write-hint benchmarks (fallbacks checked: %t); want at least two", writeHint, fallbacks)
	}
	t.Logf("checked %d benchmarks, %d with write hints", checked, writeHint)
}

// sameAblationRow compares two ablation rows field for field. Percentages
// may differ in their last bits: precision is an average accumulated in
// map order (callgraph.CompareWithDynamic).
func sameAblationRow(a, b AblationOutcome) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y)) }
	return a.Name == b.Name && a.RelationalEdges == b.RelationalEdges && a.NameOnlyEdges == b.NameOnlyEdges &&
		near(a.RelationalMonomorphic, b.RelationalMonomorphic) && near(a.NameOnlyMonomorphic, b.NameOnlyMonomorphic) &&
		near(a.RelationalPrecision, b.RelationalPrecision) && near(a.NameOnlyPrecision, b.NameOnlyPrecision)
}

func TestRenderers(t *testing.T) {
	outs, err := RunCorpus(slice(t, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderTable1(&sb, outs)
	RenderFigure(&sb, outs, 4)
	RenderFigure(&sb, outs, 5)
	RenderFigure(&sb, outs, 6)
	RenderFigure(&sb, outs, 7)
	RenderTable2(&sb, outs)
	RenderTable3(&sb, outs)
	RenderSummary(&sb, Aggregate(outs))
	RenderHintStats(&sb, outs)
	Banner(&sb, "x")
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"Table 2", "Table 3", "Corpus summary", "Hint statistics",
		"motivating-express",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestOutcomeDeterminism(t *testing.T) {
	b := corpus.ByName("mini-middleware")
	o1, err := RunBenchmark(b, true)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := RunBenchmark(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Base.CallEdges != o2.Base.CallEdges || o1.Ext.CallEdges != o2.Ext.CallEdges {
		t.Error("edge counts vary between runs")
	}
	if o1.BaseAcc != o2.BaseAcc || o1.ExtAcc != o2.ExtAcc {
		t.Error("accuracy varies between runs")
	}
	if o1.HintCount != o2.HintCount {
		t.Error("hint counts vary between runs")
	}
}

func TestRunExtensions(t *testing.T) {
	b := corpus.ByName("mini-schema")
	o, err := RunExtensions(b.Project, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// mini-schema builds getters through eval: the eval-code extension must
	// add edges over the plain run.
	if o.EdgesEvalCode <= o.EdgesPlain {
		t.Errorf("eval-code extension added nothing: plain=%d eval=%d",
			o.EdgesPlain, o.EdgesEvalCode)
	}
	if o.EdgesBoth < o.EdgesEvalCode {
		t.Errorf("both extensions lost edges: %d < %d", o.EdgesBoth, o.EdgesEvalCode)
	}
	if o.EdgesUnknownArg < o.EdgesPlain {
		t.Errorf("unknown-arg extension removed edges: %d < %d", o.EdgesUnknownArg, o.EdgesPlain)
	}
	var sb strings.Builder
	RenderExtensions(&sb, []*ExtensionOutcome{o})
	if !strings.Contains(sb.String(), "mini-schema") {
		t.Error("render missing benchmark name")
	}
}

func TestScalability(t *testing.T) {
	outs, err := RunCorpus(slice(t, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	rows := Scalability(outs)
	total := 0
	for _, r := range rows {
		total += r.Projects
		if r.Projects > 0 && (r.AvgApprox <= 0 || r.AvgBase <= 0) {
			t.Errorf("tier %s has zero averages: %+v", r.Tier, r)
		}
	}
	if total != 8 {
		t.Errorf("tier assignment lost projects: %d of 8", total)
	}
	var sb strings.Builder
	RenderScalability(&sb, rows)
	if !strings.Contains(sb.String(), "Scalability") {
		t.Error("render output wrong")
	}
}
