package static

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
)

// reachEqual compares two reachable-function sets.
func reachEqual(a, b map[callgraph.FuncID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if !b[f] {
			return false
		}
	}
	return true
}

// checkEquivalent asserts the full equivalence contract of AnalyzeBoth on
// one benchmark: the baseline snapshot matches a standalone baseline run
// (call graph, metrics, reachability, and — because the baseline phase is
// the identical code path — the exact solver-effort counters), and the
// resumed extended result matches a from-scratch extended run (call graph,
// metrics, reachability, and final constraint-system size; effort counters
// legitimately differ, that being the optimization).
func checkEquivalent(t *testing.T, b *corpus.Benchmark, opts Options) {
	t.Helper()
	ar, err := approx.Run(b.Project, approx.Options{})
	if err != nil {
		t.Fatalf("approx: %v", err)
	}
	opts.Hints = ar.Hints

	base1, err := Analyze(b.Project, Options{Mode: Baseline})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ext1, err := Analyze(b.Project, opts)
	if err != nil {
		t.Fatalf("extended: %v", err)
	}
	base2, ext2, err := AnalyzeBoth(b.Project, opts)
	if err != nil {
		t.Fatalf("AnalyzeBoth: %v", err)
	}

	// Baseline snapshot vs standalone baseline.
	if !base1.Graph.Equal(base2.Graph) {
		t.Errorf("baseline call graphs differ (standalone %d edges, snapshot %d)",
			base1.Graph.NumEdges(), base2.Graph.NumEdges())
	}
	if m1, m2 := base1.Metrics(), base2.Metrics(); m1 != m2 {
		t.Errorf("baseline metrics differ: standalone %v, snapshot %v", m1, m2)
	}
	if !reachEqual(base1.Graph.Reachable(base1.MainEntries), base2.Graph.Reachable(base2.MainEntries)) {
		t.Errorf("baseline reachable sets differ")
	}
	if base1.NumVars != base2.NumVars || base1.NumTokens != base2.NumTokens {
		t.Errorf("baseline system size differs: standalone %d vars/%d tokens, snapshot %d/%d",
			base1.NumVars, base1.NumTokens, base2.NumVars, base2.NumTokens)
	}
	if base1.SolveIterations != base2.SolveIterations || base1.TokensDelivered != base2.TokensDelivered {
		t.Errorf("baseline solver effort differs: standalone %d iters/%d tokens, snapshot %d/%d",
			base1.SolveIterations, base1.TokensDelivered, base2.SolveIterations, base2.TokensDelivered)
	}

	// Incremental-resume extended vs from-scratch extended.
	if !ext1.Graph.Equal(ext2.Graph) {
		t.Errorf("extended call graphs differ (from-scratch %d edges, resumed %d)",
			ext1.Graph.NumEdges(), ext2.Graph.NumEdges())
	}
	if m1, m2 := ext1.Metrics(), ext2.Metrics(); m1 != m2 {
		t.Errorf("extended metrics differ: from-scratch %v, resumed %v", m1, m2)
	}
	if !reachEqual(ext1.Graph.Reachable(ext1.MainEntries), ext2.Graph.Reachable(ext2.MainEntries)) {
		t.Errorf("extended reachable sets differ")
	}
	if ext1.NumVars != ext2.NumVars || ext1.NumTokens != ext2.NumTokens {
		t.Errorf("extended system size differs: from-scratch %d vars/%d tokens, resumed %d/%d",
			ext1.NumVars, ext1.NumTokens, ext2.NumVars, ext2.NumTokens)
	}
}

// TestIncrementalMatchesFromScratch is the differential equivalence test
// over the full generated corpus: for every benchmark, the incremental
// baseline→extended resume must produce exactly the outcome of the legacy
// two-pass path. Benchmarks run over a small worker pool, so -race also
// exercises concurrent incremental analyses.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	benches := corpus.All()
	if testing.Short() {
		benches = benches[:24]
	}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	if workers < 2 {
		workers = 2 // the race assertion needs real concurrency
	}
	var wg sync.WaitGroup
	work := make(chan *corpus.Benchmark)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				b := b
				t.Run(b.Project.Name, func(t *testing.T) {
					checkEquivalent(t, b, Options{Mode: WithHints})
				})
			}
		}()
	}
	for _, b := range benches {
		work <- b
	}
	close(work)
	wg.Wait()
}

// TestIncrementalMatchesWithExtensions pins the equivalence when the §6
// extensions widen the delta: eval-code hints add generated code and
// unknown-argument hints add property-name loads, both injected after the
// baseline fixpoint in the incremental path.
func TestIncrementalMatchesWithExtensions(t *testing.T) {
	benches := corpus.WithDynCG()
	if len(benches) > 12 {
		benches = benches[:12]
	}
	for _, b := range benches {
		b := b
		t.Run(b.Project.Name, func(t *testing.T) {
			checkEquivalent(t, b, Options{Mode: WithHints, EvalHints: true, UnknownArgHints: true})
		})
	}
}

// TestAnalyzeBothMotivating pins the §2 narrative through the incremental
// path: the baseline snapshot misses the two headline edges and the
// resumed extended graph recovers them.
func TestAnalyzeBothMotivating(t *testing.T) {
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, ext, err := AnalyzeBoth(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	if base.Graph.HasEdge(siteAppGet, fnMethodTable) {
		t.Errorf("baseline snapshot should miss app.get → method-table edge")
	}
	if !ext.Graph.HasEdge(siteAppGet, fnMethodTable) {
		t.Errorf("resumed extended graph should find app.get → method-table edge")
	}
	if !ext.Graph.HasEdge(siteAppListen, fnListen) {
		t.Errorf("resumed extended graph should find app.listen → listen edge")
	}
	if ext.SolveIterations <= base.SolveIterations {
		t.Errorf("extended counters should be cumulative: base %d, ext %d",
			base.SolveIterations, ext.SolveIterations)
	}
}

// TestSnapshotIncrementalSplit: an AnalyzeBoth pair converts into one row
// whose totals are the extended result's cumulative counters, split into
// the share of the baseline fixpoint — what a standalone baseline Analyze
// costs — and the share of the resumed delta. A standalone analysis has
// no split.
func TestSnapshotIncrementalSplit(t *testing.T) {
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, ext, err := AnalyzeBoth(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	s := Snapshot(base, ext)
	if s.SolveIterations != ext.SolveIterations || s.TokensDelivered != ext.TokensDelivered ||
		s.SweepVisited != ext.Structure.SweepVisited || s.SolverEpochs != ext.Parallel.Epochs {
		t.Errorf("pair totals %+v differ from the extended result's counters", s)
	}
	if s.SolveIterationsBase != alone.SolveIterations || s.TokensDeliveredBase != alone.TokensDelivered {
		t.Errorf("baseline share %d/%d, want the standalone baseline's %d/%d",
			s.SolveIterationsBase, s.TokensDeliveredBase, alone.SolveIterations, alone.TokensDelivered)
	}
	if s.SolveIterationsBase+s.SolveIterationsDelta != s.SolveIterations ||
		s.TokensDeliveredBase+s.TokensDeliveredDelta != s.TokensDelivered || s.TokensDeliveredDelta <= 0 {
		t.Errorf("split %+v does not add up to the totals", s)
	}
	if one := Snapshot(nil, alone); one.SolveIterations != alone.SolveIterations ||
		one.SolveIterationsBase+one.SolveIterationsDelta+one.TokensDeliveredBase+one.TokensDeliveredDelta != 0 {
		t.Errorf("standalone row %+v", one)
	}
}

// TestAnalyzeBothRejectsBaseline pins the API contract.
func TestAnalyzeBothRejectsBaseline(t *testing.T) {
	if _, _, err := AnalyzeBoth(motivating(), Options{Mode: Baseline}); err == nil {
		t.Fatal("want error for Mode: Baseline")
	}
	if _, _, err := AnalyzeBoth(motivating(), Options{Mode: WithHints}); err == nil {
		t.Fatal("want error for missing hints")
	}
}

// TestCheckpointFreezesTokenCounts covers the solver checkpoint directly:
// tokensAt must keep returning the fixpoint-time membership after further
// constraints are injected and solved, without having copied any set.
func TestCheckpointFreezesTokenCounts(t *testing.T) {
	s := newSolver()
	v1, v2 := s.newVar(), s.newVar()
	s.addEdge(v1, v2)
	s.addToken(v1, 1)
	s.addToken(v1, 2)
	s.solve()
	cp := s.checkpoint()

	if got := s.tokensAt(cp, v2); len(got) != 2 {
		t.Fatalf("checkpoint read-out: got %v, want 2 tokens", got)
	}
	// Inject a delta and resume.
	s.addToken(v1, 3)
	v3 := s.newVar()
	s.addEdge(v2, v3)
	s.solve()

	if got := s.tokensAt(cp, v2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("frozen read-out changed after resume: got %v", got)
	}
	if got := s.tokens(v2); len(got) != 3 {
		t.Fatalf("live set after resume: got %v, want 3 tokens", got)
	}
	// Vars allocated after the checkpoint read as empty at the checkpoint.
	if got := s.tokensAt(cp, v3); len(got) != 0 {
		t.Fatalf("post-checkpoint var should read empty: got %v", got)
	}
	if cp.iterations >= s.iterations {
		t.Fatalf("checkpoint counters should be frozen: cp %d, live %d", cp.iterations, s.iterations)
	}
}
