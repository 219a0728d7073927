package pipeline

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/static"
)

func TestFullPipeline(t *testing.T) {
	res, err := Run(corpus.Motivating(), Config{WithDynCG: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx == nil || res.Approx.Hints.Count() == 0 {
		t.Fatal("pre-analysis produced nothing")
	}
	if res.Baseline == nil || res.Extended == nil {
		t.Fatal("missing analysis phases")
	}
	base, ext := res.Baseline.Metrics(), res.Extended.Metrics()
	if ext.CallEdges <= base.CallEdges {
		t.Errorf("extended edges %d ≤ baseline %d", ext.CallEdges, base.CallEdges)
	}
	if res.Dynamic == nil || res.Dynamic.Graph.NumEdges() == 0 {
		t.Fatal("no dynamic call graph")
	}
	if res.ExtendedAccuracy.Recall <= res.BaselineAccuracy.Recall {
		t.Errorf("recall did not improve: %.1f → %.1f",
			res.BaselineAccuracy.Recall, res.ExtendedAccuracy.Recall)
	}
}

func TestDisableDPRStillImproves(t *testing.T) {
	// The Table 2 "*" configuration: only [DPW] active.
	res, err := Run(corpus.Motivating(), Config{DisableDPR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Extended.Metrics().CallEdges <= res.Baseline.Metrics().CallEdges {
		t.Error("write hints alone should still add edges")
	}
}

func TestPipelineOnAllMinis(t *testing.T) {
	for _, name := range []string{
		"mini-events", "mini-middleware", "mini-validator",
		"mini-plugin-loader", "mini-schema", "mini-utilbelt", "mini-router",
	} {
		b := corpus.ByName(name)
		if b == nil {
			t.Fatalf("missing benchmark %s", name)
		}
		res, err := Run(b.Project, Config{WithDynCG: b.HasDynCG})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base, ext := res.Baseline.Metrics(), res.Extended.Metrics()
		if ext.CallEdges < base.CallEdges {
			t.Errorf("%s: hints removed edges (%d → %d)", name, base.CallEdges, ext.CallEdges)
		}
	}
}

func TestMiniRouterDPR(t *testing.T) {
	// mini-router's dispatch is a computed read: the [DPR] rule is what
	// resolves it.
	b := corpus.ByName("mini-router")
	full, err := Run(b.Project, Config{})
	if err != nil {
		t.Fatal(err)
	}
	noDPR, err := Run(b.Project, Config{DisableDPR: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Extended.Metrics().CallEdges <= noDPR.Extended.Metrics().CallEdges {
		t.Errorf("[DPR] should add dispatch edges: with=%d without=%d",
			full.Extended.Metrics().CallEdges, noDPR.Extended.Metrics().CallEdges)
	}
}

// TestPreAnalysisAndSessionPaths asserts that a precomputed pre-analysis and
// a resident delta session yield the graphs of a plain run, and that an
// unchanged session is served from its memo.
func TestPreAnalysisAndSessionPaths(t *testing.T) {
	plain, err := Run(corpus.Motivating(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	project := corpus.Motivating()
	sess := static.NewDeltaSession(project)
	for i, wantReused := range []bool{false, true} {
		res, err := Run(project, Config{PreAnalysis: plain.Approx, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reused != wantReused {
			t.Errorf("run %d: Reused = %v, want %v", i, res.Reused, wantReused)
		}
		if res.Approx != plain.Approx {
			t.Errorf("run %d: precomputed pre-analysis not used", i)
		}
		if !res.Extended.Graph.Equal(plain.Extended.Graph) || !res.Baseline.Graph.Equal(plain.Baseline.Graph) {
			t.Errorf("run %d: session graphs differ from a plain run", i)
		}
	}
}

// TestDynamicGraphMemoizedPerProject asserts one build per project, and a
// rebuild after a delta session edits the project in place.
func TestDynamicGraphMemoizedPerProject(t *testing.T) {
	b := corpus.ByName("mini-router")
	before := DynamicBuilds()
	for i := 0; i < 2; i++ {
		if _, err := Run(b.Project, Config{WithDynCG: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got := DynamicBuilds() - before; got != 1 {
		t.Fatalf("dynamic call graph built %d times for one project, want 1", got)
	}
	sess := static.NewDeltaSession(b.Project)
	path := b.Project.MainEntries[0]
	sess.Update(map[string]string{path: b.Project.Files[path] + "\n"}, nil)
	if _, built, err := DynamicGraph(b.Project, dyncg.Options{}); err != nil || !built {
		t.Fatalf("after an edit: built=%t err=%v, want a rebuild", built, err)
	}
	if got := DynamicBuilds() - before; got != 2 {
		t.Fatalf("dynamic call graph built %d times after an edit, want 2", got)
	}
}
