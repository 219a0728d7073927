package experiments

import (
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/static"
)

// extensionProjects are the projects of evaluate's §6 extension table.
const extensionProjects = 12

// TestExtensionsReuseCorpusHints: on every §6 extension project, a row
// that reuses the corpus run's outcome, hint set included, equals the row
// RunExtensions computes from scratch, column for column, and runs no
// pre-analysis of its own.
func TestExtensionsReuseCorpusHints(t *testing.T) {
	outs, err := RunCorpusOpts(corpus.WithDynCG()[:extensionProjects], Options{WithDynCG: true})
	if err != nil {
		t.Fatal(err)
	}
	reusedBenches := corpus.WithDynCG()[:extensionProjects]
	scratchBenches := corpus.WithDynCG()[:extensionProjects]
	for i, prior := range outs {
		if prior.hints == nil {
			t.Fatalf("%s: clean outcome kept no hint set", prior.Name)
		}
		got, err := RunExtensions(reusedBenches[i].Project, nil, prior)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunExtensions(scratchBenches[i].Project, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := got.Perf.PhaseMS[perf.PhaseApprox.String()]; ok {
			t.Errorf("%s: the reusing row pre-analyzed the project again", prior.Name)
		}
		got.Perf, want.Perf = perf.Snapshot{}, perf.Snapshot{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused row %+v, from scratch %+v", prior.Name, *got, *want)
		}
	}
}

// TestExtensionsReuseParsesNothing: where neither §6 variant applies, a
// row reusing the corpus run's outcome has nothing left to compute, so the
// fresh project it is given is never parsed.
func TestExtensionsReuseParsesNothing(t *testing.T) {
	for i, b := range corpus.WithDynCG()[:extensionProjects] {
		ar, err := pipeline.PreAnalyze(b.Project, approx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if static.UnknownArgHintsApply(ar.Hints) || static.EvalHintsApply(ar.Hints) {
			continue
		}
		outs, err := RunCorpusOpts([]*corpus.Benchmark{b}, Options{WithDynCG: true})
		if err != nil {
			t.Fatal(err)
		}
		fresh := corpus.WithDynCG()[i].Project
		if _, err := RunExtensions(fresh, nil, outs[0]); err != nil {
			t.Fatal(err)
		}
		if parses, hits := fresh.ParseCounts(); parses+hits != 0 {
			t.Errorf("%s: reusing the corpus outcome still parsed %d files (%d cache hits)", fresh.Name, parses, hits)
		}
		return
	}
	t.Fatal("no extension project without §6 variants")
}

// TestAblationReusesCorpusHints: without a precomputed name-only row, the
// ablation row reuses the corpus outcome's hint set instead of
// pre-analyzing again, and still equals the from-scratch row.
func TestAblationReusesCorpusHints(t *testing.T) {
	checked := 0
	for _, b := range corpus.WithDynCG() {
		outs, err := RunCorpusOpts([]*corpus.Benchmark{b}, Options{WithDynCG: true})
		if err != nil {
			t.Fatal(err)
		}
		if !static.WriteHintsApply(outs[0].hints) {
			continue
		}
		got, err := RunAblationReusing(b, outs[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunAblation(b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAblationRow(*got, *want) {
			t.Errorf("%s: reused row %+v, from scratch %+v", b.Project.Name, *got, *want)
		}
		if _, ok := got.Perf.PhaseMS[perf.PhaseApprox.String()]; ok {
			t.Errorf("%s: the reusing row pre-analyzed the project again", b.Project.Name)
		}
		if got.Perf.TokensDelivered == 0 {
			t.Errorf("%s: the name-only solve recorded no solver work", b.Project.Name)
		}
		if checked++; checked == 3 {
			return
		}
	}
	t.Fatalf("checked %d benchmarks with write hints, want 3", checked)
}
