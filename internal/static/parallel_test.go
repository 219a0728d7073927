package static

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
)

// workerCounts are the arms every determinism test runs. 0 and 1 both run
// the epoch engine with one inline worker (0 is the CLI default); workers=1
// matters because it exercises the partition/scan/barrier machinery
// without concurrency, so a divergence there is a logic bug rather than a
// race.
var workerCounts = []int{0, 1, 2, 4, 8}

// solveCounters are the deterministic effort and structure counters of one
// solve, compared across worker counts.
type solveCounters struct {
	iterations, delivered int64
	structure             StructureStats
}

func countersOf(s *solver) solveCounters {
	iters, delivered := s.stats()
	return solveCounters{iters, delivered, s.structure()}
}

// TestParallelSolverMatchesSequential is the randomized differential test
// of the epoch engine run concurrently against the same engine run
// sequentially (one inline worker, the default of newSolver): identical
// random constraint graphs with interleaved solves and checkpoints,
// compared on final sets, every checkpoint's frozen views, and trigger
// deliveries. The sequential run is itself checked against the no-unify
// reference solver, so every worker count matches the reference. Effort and
// structure counters must be identical at every worker count — the engine
// is deterministic by construction.
func TestParallelSolverMatchesSequential(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		sq := newSolver()
		cpsSeq, firedSeq := randomOps(seed, sq, nVars, rounds)
		checkTokenBits(t, sq)
		want := countersOf(sq)

		sr := newReferenceSolver()
		cpsRef, firedRef := randomOps(seed, sr, nVars, rounds)
		for v := 0; v < nVars; v++ {
			if gs, gr := sortedTokens(sq.tokens(Var(v))), sortedTokens(sr.tokens(Var(v))); !tokensEqual(gs, gr) {
				t.Fatalf("seed %d: var %d final sets differ: sequential %v, reference %v", seed, v, gs, gr)
			}
			for k := range cpsSeq {
				fs := sortedTokens(sq.tokensAt(cpsSeq[k], Var(v)))
				fr := sortedTokens(sr.tokensAt(cpsRef[k], Var(v)))
				if !tokensEqual(fs, fr) {
					t.Fatalf("seed %d: var %d checkpoint %d frozen views differ: sequential %v, reference %v",
						seed, v, k, fs, fr)
				}
			}
		}
		if len(firedSeq) != len(firedRef) {
			t.Fatalf("seed %d: trigger deliveries differ: sequential %d pairs, reference %d",
				seed, len(firedSeq), len(firedRef))
		}

		for _, workers := range workerCounts {
			sp := newSolver()
			sp.configureParallel(workers)
			cpsPar, firedPar := randomOps(seed, sp, nVars, rounds)
			checkTokenBits(t, sp)

			for v := 0; v < nVars; v++ {
				gs := sortedTokens(sq.tokens(Var(v)))
				gp := sortedTokens(sp.tokens(Var(v)))
				if !tokensEqual(gs, gp) {
					t.Fatalf("seed %d workers %d: var %d final sets differ: sequential %v, parallel %v",
						seed, workers, v, gs, gp)
				}
				for k := range cpsSeq {
					fs := sortedTokens(sq.tokensAt(cpsSeq[k], Var(v)))
					fp := sortedTokens(sp.tokensAt(cpsPar[k], Var(v)))
					if !tokensEqual(fs, fp) {
						t.Fatalf("seed %d workers %d: var %d checkpoint %d frozen views differ: sequential %v, parallel %v",
							seed, workers, v, k, fs, fp)
					}
				}
			}
			if len(firedPar) != len(firedSeq) {
				t.Fatalf("seed %d workers %d: trigger deliveries differ: parallel %d pairs, sequential %d",
					seed, workers, len(firedPar), len(firedSeq))
			}
			for k, n := range firedPar {
				if n != 1 || firedSeq[k] != 1 {
					t.Fatalf("seed %d workers %d: delivery %v fired %d times (sequential %d)",
						seed, workers, k, n, firedSeq[k])
				}
			}
			if got := countersOf(sp); got != want {
				t.Fatalf("seed %d workers %d: counters %+v, sequential %+v", seed, workers, got, want)
			}
			if st := sp.parallelStats(); st.Epochs == 0 {
				t.Fatalf("seed %d workers %d: the epoch engine recorded no epochs", seed, workers)
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkers pins the stronger property the
// epoch pipeline is designed for: not just that every worker count matches
// the reference engine, but that the scheduling-independent parallel
// diagnostics (epochs, cross-shard deliveries, async sweep launches) are
// themselves identical at every worker count — with every epoch forced
// through the goroutine-and-deque path so chunks really are claimed and
// stolen concurrently at workers 2..8, not served by the inline path.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	savedInline := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = savedInline }()

	for seed := int64(0); seed < 6; seed++ {
		var refStats *ParallelSolveStats
		for _, workers := range workerCounts {
			s := newSolver()
			s.configureParallel(workers)
			randomOps(seed, s, 50, 2)
			st := s.parallelStats()
			if refStats == nil {
				refStats = &st
				continue
			}
			if st.Epochs != refStats.Epochs || st.CrossShard != refStats.CrossShard ||
				st.AsyncSweeps != refStats.AsyncSweeps {
				t.Fatalf("seed %d workers %d: scheduling-independent stats differ: %+v vs %+v at workers=1",
					seed, workers, st, *refStats)
			}
		}
	}
}

// TestParallelPipelinePropertyConcurrentMatchesInline is the pipeline
// property test for the split barrier: the parallel apply pass plus staged
// serial tail, run fully concurrently (every epoch on the goroutine path,
// every batched sweep on the concurrent sweep worker), must be
// indistinguishable — results, trigger firings, frozen checkpoint views,
// effort counters, structure counters, and the deterministic parallel
// diagnostics — from the same pipeline applied inline on the solver
// goroutine at workers=1. Under -race this is also the test that drives
// the shard-owned apply workers and the read-only Tarjan sweep against the
// scan/winnow/partition phases they overlap.
func TestParallelPipelinePropertyConcurrentMatchesInline(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	savedInline, savedSweep := inlineFrontierMax, asyncSweepMinFrontier
	defer func() { inlineFrontierMax, asyncSweepMinFrontier = savedInline, savedSweep }()

	totalSweeps := int64(0)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x9a7a))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		// Inline arm: one worker, everything on the solver goroutine, but
		// with batched sweeps still routed through the async launch/join
		// machinery so both arms run the same collapse policy.
		asyncSweepMinFrontier = 0
		inlineFrontierMax = 1 << 30
		si := newSolver()
		si.configureParallel(1)
		cpsInline, firedInline := randomOps(seed, si, nVars, rounds)
		inlineIters, inlineDelivered := si.stats()
		inlineStruct, inlineStats := si.structure(), si.parallelStats()

		for _, workers := range []int{4, 8} {
			// Concurrent arm: every epoch through the deque path.
			inlineFrontierMax = 0
			sc := newSolver()
			sc.configureParallel(workers)
			cpsConc, firedConc := randomOps(seed, sc, nVars, rounds)
			checkTokenBits(t, sc)

			for v := 0; v < nVars; v++ {
				if !tokensEqual(sortedTokens(si.tokens(Var(v))), sortedTokens(sc.tokens(Var(v)))) {
					t.Fatalf("seed %d workers %d: var %d final sets differ between inline and concurrent pipeline",
						seed, workers, v)
				}
				for k := range cpsInline {
					if !tokensEqual(sortedTokens(si.tokensAt(cpsInline[k], Var(v))),
						sortedTokens(sc.tokensAt(cpsConc[k], Var(v)))) {
						t.Fatalf("seed %d workers %d: var %d checkpoint %d frozen views differ between inline and concurrent pipeline",
							seed, workers, v, k)
					}
				}
			}
			if len(firedConc) != len(firedInline) {
				t.Fatalf("seed %d workers %d: trigger deliveries differ: concurrent %d pairs, inline %d",
					seed, workers, len(firedConc), len(firedInline))
			}
			concIters, concDelivered := sc.stats()
			if concIters != inlineIters || concDelivered != inlineDelivered {
				t.Fatalf("seed %d workers %d: effort counters differ from inline pipeline: %d iters / %d tokens vs %d / %d",
					seed, workers, concIters, concDelivered, inlineIters, inlineDelivered)
			}
			if cs := sc.structure(); cs != inlineStruct {
				t.Fatalf("seed %d workers %d: structure counters differ from inline pipeline: %+v vs %+v",
					seed, workers, cs, inlineStruct)
			}
			concStats := sc.parallelStats()
			if concStats.Epochs != inlineStats.Epochs || concStats.CrossShard != inlineStats.CrossShard ||
				concStats.AsyncSweeps != inlineStats.AsyncSweeps {
				t.Fatalf("seed %d workers %d: deterministic parallel stats differ from inline pipeline: %+v vs %+v",
					seed, workers, concStats, inlineStats)
			}
			totalSweeps += concStats.AsyncSweeps
		}
	}
	if totalSweeps == 0 {
		t.Fatalf("no concurrent cycle sweep ran across %d seeds; the overlap path is untested", seeds)
	}
}

// TestParallelConcurrentScanPath forces every epoch — even one-delivery
// frontiers — through the goroutine-and-deque scan path and re-checks the
// differential against the reference engine. With -race this is the test
// that actually exercises the Chase-Lev deques and concurrent findRO walks;
// the frontiers of the other tests often fit under inlineFrontierMax.
func TestParallelConcurrentScanPath(t *testing.T) {
	saved := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = saved }()

	for seed := int64(0); seed < 6; seed++ {
		sq := newReferenceSolver()
		_, firedSeq := randomOps(seed, sq, 60, 2)
		for _, workers := range []int{2, 4, 8} {
			sp := newSolver()
			sp.configureParallel(workers)
			_, firedPar := randomOps(seed, sp, 60, 2)
			for v := 0; v < 60; v++ {
				if !tokensEqual(sortedTokens(sq.tokens(Var(v))), sortedTokens(sp.tokens(Var(v)))) {
					t.Fatalf("seed %d workers %d: var %d final sets differ on forced-concurrent path", seed, workers, v)
				}
			}
			if len(firedPar) != len(firedSeq) {
				t.Fatalf("seed %d workers %d: trigger deliveries differ on forced-concurrent path", seed, workers)
			}
		}
	}
}

// TestParallelReferenceSolverFallsBackSequential checks the exact no-unify
// reference solver never enters the epoch engine even when workers are
// configured: the dispatch in solve() must route it to its sequential pop
// loop.
func TestParallelReferenceSolverFallsBackSequential(t *testing.T) {
	s := newReferenceSolver()
	s.configureParallel(4)
	randomOps(7, s, 30, 2)
	if st := s.parallelStats(); st.Epochs != 0 {
		t.Fatalf("no-unify solver ran %d parallel epochs; must stay sequential", st.Epochs)
	}
}

// TestAnalyzeParallelMatchesReferenceProject runs the full analysis
// pipeline (not just the bare solver) on the paper's motivating Express
// example at every worker count and requires the call graph of the
// no-unify reference solver and identical counters at every count.
func TestAnalyzeParallelMatchesReferenceProject(t *testing.T) {
	project := motivating()
	ref, err := Analyze(project, Options{Mode: Baseline, reference: true})
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for _, workers := range workerCounts {
		got, err := Analyze(project, Options{Mode: Baseline, SolverWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Graph.Equal(ref.Graph) {
			t.Fatalf("workers %d: call graph differs from the reference", workers)
		}
		if first == nil {
			first = got
			continue
		}
		if got.SolveIterations != first.SolveIterations || got.TokensDelivered != first.TokensDelivered {
			t.Fatalf("workers %d: effort differs: %d iters / %d tokens vs %d / %d at workers=%d",
				workers, got.SolveIterations, got.TokensDelivered, first.SolveIterations, first.TokensDelivered, workerCounts[0])
		}
		if got.Structure != first.Structure {
			t.Fatalf("workers %d: structure counters differ: %+v vs %+v", workers, got.Structure, first.Structure)
		}
	}
}

// TestCorpusCountersIdenticalAcrossWorkers is the corpus-wide form of the
// one-engine guarantee: on every corpus project, AnalyzeBoth gives the same
// effort and structure counters at solver-worker counts 0, 1 and 4, and
// baseline and extended call graphs equal to the no-unify reference's.
func TestCorpusCountersIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep; skipped with -short")
	}
	of := func(r *Result) solveCounters {
		return solveCounters{r.SolveIterations, r.TokensDelivered, r.Structure}
	}
	for _, b := range corpus.All() {
		name := b.Project.Name
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			t.Fatalf("%s: approx: %v", name, err)
		}
		opts := Options{Mode: WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()}
		refOpts := opts
		refOpts.reference = true
		refBase, refExt, err := AnalyzeBoth(b.Project, refOpts)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		var want [2]solveCounters
		for i, workers := range []int{0, 1, 4} {
			opts.SolverWorkers = workers
			base, ext, err := AnalyzeBoth(b.Project, opts)
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			if !base.Graph.Equal(refBase.Graph) || !ext.Graph.Equal(refExt.Graph) {
				t.Errorf("%s workers %d: call graphs differ from the reference", name, workers)
			}
			got := [2]solveCounters{of(base), of(ext)}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s workers %d: counters %+v, workers=0 %+v", name, workers, got, want)
			}
		}
	}
}

// BenchmarkSolverParallel measures raw solver throughput per worker count
// on a dense random system (go test -bench SolverParallel -benchtime ...).
func BenchmarkSolverParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			s := newSolver()
			s.configureParallel(workers)
			randomOps(1, s, 400, 3)
		}
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) { run(b, w) })
	}
}
