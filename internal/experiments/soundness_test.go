package experiments

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fuzz"
	"repro/internal/pipeline"
)

// soundnessSolverWorkers selects the solver-worker count for the corpus
// soundness sweep via REPRO_SOLVER_WORKERS, so CI can run the identical
// oracle with the epoch engine inline and concurrent. The known-gap
// snapshot must hold verbatim for every value: the call graphs are
// identical at every worker count.
func soundnessSolverWorkers(t *testing.T) int {
	v := os.Getenv("REPRO_SOLVER_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		t.Fatalf("REPRO_SOLVER_WORKERS=%q: want a non-negative integer", v)
	}
	t.Logf("solver workers: %d", n)
	return n
}

// knownSoundnessGaps lists the dynamic call-graph edges the extended
// analysis is known to miss, per benchmark, as "site -> target [bucket]"
// strings. Currently EMPTY: the last three residual gaps — all
// missing-hint, caused by the approximate interpretation never seeding the
// test-entry modules its dynamic ground truth executes — closed when the
// pre-analysis worklist started including Project.TestEntries. A new entry
// appearing here means a soundness regression; file the minimized
// reproducer via cmd/fuzz before pinning it.
var knownSoundnessGaps = map[string][]string{}

// TestCorpusSoundnessOracle checks the fuzzer's soundness oracle — every
// dynamically observed call edge must be in the extended static graph —
// across all corpus benchmarks that have dynamic call graphs, and compares
// the missing-edge set against the snapshot above.
func TestCorpusSoundnessOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep; skipped with -short")
	}
	solverWorkers := soundnessSolverWorkers(t)
	checked := 0
	for _, b := range corpus.All() {
		if !b.HasDynCG {
			continue
		}
		checked++
		name := b.Project.Name
		res, err := pipeline.Run(b.Project, pipeline.Config{
			EvalHints: true, SolverWorkers: solverWorkers, WithDynCG: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, e := range fuzz.MissingDynamicEdges(res.Extended.Graph, res.Dynamic.Graph) {
			bucket := fuzz.ClassifyEdge(b.Project.Files, e.Site, e.Target)
			got = append(got, fmt.Sprintf("%s -> %s [%s]", e.Site, e.Target, bucket))
		}
		want := knownSoundnessGaps[name]
		for _, g := range diff(got, want) {
			t.Errorf("%s: NEW missing dynamic edge (soundness regression): %s", name, g)
		}
		for _, g := range diff(want, got) {
			t.Errorf("%s: known gap no longer missing (recall improved — update knownSoundnessGaps): %s", name, g)
		}
	}
	if checked == 0 {
		t.Fatal("no benchmarks with dynamic call graphs in the corpus")
	}
	t.Logf("soundness oracle checked on %d benchmarks", checked)
}

// diff returns the elements of a not present in b.
func diff(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
