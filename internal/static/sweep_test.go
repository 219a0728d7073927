package static

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// wholeGraphComps is the oracle for the rooted sweep: a recursive Tarjan
// over every representative among the first n variables, independent of
// sccFromRoots and its scratch. It returns the multi-member components in
// canonical form (see canonComps). Read-only (findRO), so it can run on the
// concurrent sweep worker.
func wholeGraphComps(s *solver, n int) [][]Var {
	index := make(map[Var]int, n)
	low := make(map[Var]int, n)
	onStack := make(map[Var]bool, n)
	var stack []Var
	var comps [][]Var
	var visit func(v Var)
	visit = func(v Var) {
		index[v] = len(index) + 1
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range s.state(v).edges {
			w := s.findRO(e)
			if w == v {
				continue
			}
			if index[w] == 0 {
				visit(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []Var
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		if len(comp) > 1 {
			comps = append(comps, comp)
		}
	}
	for v := Var(0); int(v) < n; v++ {
		if s.parent[v] == v && index[v] == 0 {
			visit(v)
		}
	}
	return canonComps(comps)
}

// canonComps sorts each component and the component list, so finders that
// discover the same components in different orders compare equal.
func canonComps(comps [][]Var) [][]Var {
	out := make([][]Var, len(comps))
	for i, c := range comps {
		c = append([]Var(nil), c...)
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		out[i] = c
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// sweepOracle installs a sweep hook on s that compares every sweep's
// components with the whole-graph oracle, on whatever goroutine runs the
// sweep. It returns a function reporting the number of sweeps and of
// components checked, and the first mismatch (nil if none).
func sweepOracle(s *solver) func() (int, int, error) {
	var mu sync.Mutex
	var first error
	sweeps, found := 0, 0
	s.sweepHook = func(roots []Var, n int, comps [][]Var) {
		got, want := canonComps(comps), wholeGraphComps(s, n)
		mu.Lock()
		defer mu.Unlock()
		sweeps++
		found += len(got)
		if first == nil && fmt.Sprint(got) != fmt.Sprint(want) {
			first = fmt.Errorf("sweep %d from %d roots: rooted finder %v, whole graph %v",
				sweeps, len(roots), got, want)
		}
	}
	return func() (int, int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sweeps, found, first
	}
}

// TestRootedSweepMatchesWholeGraph is the differential exactness test of
// the rooted SCC sweep: at every sweep point — entry, periodic, LCD-batch,
// and (on the epoch engine) the concurrent sweep worker — the components
// found from the sweep roots must be exactly the multi-member SCCs of the
// whole representative graph. The random constraint graphs add edges and
// tokens between solves and, through triggers, mid-solve, and collapse
// cycles as they go, on the sequential engine and the epoch engine.
func TestRootedSweepMatchesWholeGraph(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	engines := []struct {
		name    string
		workers int
	}{{"sequential", 0}, {"epoch-1", 1}, {"epoch-4", 4}}
	for _, eng := range engines {
		sweeps, found := 0, 0
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			nVars := 20 + rng.Intn(120)
			rounds := 1 + rng.Intn(4)
			s := newSolver()
			s.configureParallel(eng.workers)
			check := sweepOracle(s)
			randomOps(seed, s, nVars, rounds)
			n, f, err := check()
			if err != nil {
				t.Fatalf("%s seed %d: %v", eng.name, seed, err)
			}
			sweeps += n
			found += f
		}
		if sweeps == 0 || found == 0 {
			t.Fatalf("%s: %d sweeps found %d components; the generator no longer exercises the sweep",
				eng.name, sweeps, found)
		}
	}
}

// TestRootedSweepConcurrentMatchesWholeGraph repeats the differential with
// every batched sweep forced onto the concurrent sweep worker and every
// epoch onto the goroutine path. Under -race this also checks that the
// worker's root snapshot is not written while the sweep reads it.
func TestRootedSweepConcurrentMatchesWholeGraph(t *testing.T) {
	savedInline, savedSweep := inlineFrontierMax, asyncSweepMinFrontier
	defer func() { inlineFrontierMax, asyncSweepMinFrontier = savedInline, savedSweep }()
	inlineFrontierMax, asyncSweepMinFrontier = 0, 0

	seeds := int64(20)
	if testing.Short() {
		seeds = 6
	}
	var async int64
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0xa57c))
		nVars := 20 + rng.Intn(120)
		rounds := 1 + rng.Intn(4)
		s := newSolver()
		s.configureParallel(4)
		check := sweepOracle(s)
		randomOps(seed, s, nVars, rounds)
		if _, _, err := check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		async += s.parallelStats().AsyncSweeps
	}
	if async == 0 {
		t.Fatal("no sweep ran on the concurrent worker")
	}
}

// TestSweepVisitedDeterministic: the sweep-work counter is part of the
// structure counters, so it must not depend on the worker count or on
// whether sweeps run inline or on the concurrent worker.
func TestSweepVisitedDeterministic(t *testing.T) {
	savedInline := inlineFrontierMax
	defer func() { inlineFrontierMax = savedInline }()
	for seed := int64(0); seed < 8; seed++ {
		var want StructureStats
		for i, workers := range []int{1, 2, 4, 8} {
			inlineFrontierMax = savedInline
			if workers > 1 {
				inlineFrontierMax = 0
			}
			s := newSolver()
			s.configureParallel(workers)
			randomOps(seed, s, 90, 3)
			got := s.structure()
			if got.SweepVisited == 0 {
				t.Fatalf("seed %d workers %d: no sweep work recorded", seed, workers)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d workers %d: structure %+v, workers=1 %+v", seed, workers, got, want)
			}
		}
	}
}

// TestNoUnifyRecordsNoSweepRoots: solvers that never sweep — the reference
// engine and a solver inside a rollback window — must not accumulate
// sweep roots, or the list would grow for as long as constraints arrive.
func TestNoUnifyRecordsNoSweepRoots(t *testing.T) {
	ref := newReferenceSolver()
	randomOps(3, ref, 60, 3)
	if n := len(ref.sweepRoots); n != 0 {
		t.Fatalf("reference solver holds %d sweep roots after solving", n)
	}

	s := newSolver()
	a, b, c := s.newVar(), s.newVar(), s.newVar()
	s.addEdge(a, b)
	s.addToken(a, 1)
	s.solve()
	s.addEdge(b, c) // pending root when the window opens
	s.rollbackPoint()
	s.addEdge(c, a)
	s.addToken(c, 2)
	s.solve()
	if n := len(s.sweepRoots); n != 0 {
		t.Fatalf("solver in a rollback window holds %d sweep roots after solving", n)
	}
	if s.size(a) != 2 {
		t.Fatalf("a has %d tokens, want 2", s.size(a))
	}
}

// TestCollapseWinnerIsSweepRoot: contracting a group that is not an SCC
// (preUnify's set-equal classes, copy-substitution chains) can close a
// cycle without adding an edge. The winner is recorded as a sweep root, so
// the next sweep still finds that cycle.
func TestCollapseWinnerIsSweepRoot(t *testing.T) {
	s := newSolver()
	a, b, c := s.newVar(), s.newVar(), s.newVar()
	s.addEdge(a, b)
	s.addEdge(b, c)
	s.addToken(a, 1)
	s.solve() // sweeps a→b→c: acyclic
	s.preUnify([][]Var{{a, c}})
	if len(s.sweepRoots) == 0 {
		t.Fatal("collapse recorded no sweep root")
	}
	s.solve() // entry sweep must find {a/c, b}
	if s.find(a) != s.find(b) {
		t.Fatalf("cycle a/c ⇄ b closed by contraction was not collapsed")
	}
}
