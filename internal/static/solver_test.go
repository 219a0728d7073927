package static

import "testing"

// TestSolverSmallSetSpill drives token and edge sets across the
// smallSetMax threshold and checks deduplication keeps working after the
// linear-scan representation spills (tokens to a windowed bitset, edges to
// a map).
func TestSolverSmallSetSpill(t *testing.T) {
	s := newSolver()
	v := s.newVar()
	n := 3*smallSetMax + 5
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			s.addToken(v, Token(i))
		}
	}
	if got := s.size(v); got != n {
		t.Fatalf("size = %d, want %d (duplicates leaked past the spill)", got, n)
	}
	seen := map[Token]bool{}
	for _, tok := range s.tokens(v) {
		if seen[tok] {
			t.Fatalf("token %d appears twice", tok)
		}
		seen[tok] = true
	}

	// Edge set: adding the same edges repeatedly must not duplicate
	// propagation targets.
	sinks := make([]Var, n)
	for i := range sinks {
		sinks[i] = s.newVar()
	}
	for round := 0; round < 3; round++ {
		for _, sink := range sinks {
			s.addEdge(v, sink)
		}
	}
	s.solve()
	for _, sink := range sinks {
		if got := s.size(sink); got != n {
			t.Fatalf("sink size = %d, want %d", got, n)
		}
	}
	checkTokenBits(t, s)
}

// checkTokenBits asserts the token-set representation invariant on every
// variable: a representative holds a tokenBits exactly when its set is
// above smallSetMax, every token lies inside the window, the member plane
// is set(tokens), the processed plane is set(tokens[:delivered]), and no
// other bit is set. Merged states have released theirs.
func checkTokenBits(t *testing.T, s *solver) {
	t.Helper()
	for v := 0; v < s.numVars(); v++ {
		st := s.state(Var(v))
		if st.merged {
			if st.bits != nil {
				t.Fatalf("var %d: merged state kept its token bits", v)
			}
			continue
		}
		if spilled := len(st.tokens) > smallSetMax; spilled != (st.bits != nil) {
			t.Fatalf("var %d: %d tokens but spilled=%v", v, len(st.tokens), st.bits != nil)
		}
		if st.bits == nil {
			continue
		}
		want := make([]uint64, len(st.bits.words))
		for i, tok := range st.tokens {
			k := st.bits.word(tok)
			if k >= uint(len(want)) {
				t.Fatalf("var %d: token %d outside the window at base %d", v, tok, st.bits.base)
			}
			want[k] |= 1 << (tok & 63)
			if i < st.delivered {
				want[k+1] |= 1 << (tok & 63)
			}
		}
		for i, w := range want {
			if got := st.bits.words[i]; got != w {
				plane := "member"
				if i%2 == 1 {
					plane = "processed"
				}
				t.Fatalf("var %d: %s word %d = %#x, want %#x (tokens %v, delivered %d)",
					v, plane, int(st.bits.base)+i/2, got, w, st.tokens, st.delivered)
			}
		}
	}
}

// TestSolverSwapPathMatchesReference reaches the out-of-append-order
// branch of deliver: two variables, both spilled and both holding pending
// tokens, are merged mid-queue, so the representative pops the absorbed
// member's pending tokens before its own. On both engines (sequential, and
// the epoch engine inline and forced concurrent), the swap must run and the
// final sets, trigger firings and checkpoint views must equal the
// no-unification reference solver's.
func TestSolverSwapPathMatchesReference(t *testing.T) {
	saved := inlineFrontierMax
	defer func() { inlineFrontierMax = saved }()

	// run builds the scenario on s; merge collapses the pair before the
	// second solve (the reference solver keeps them apart).
	run := func(s *solver, merge bool) ([]Var, []*checkpoint, map[fireKey]int) {
		a, b, sink := s.newVar(), s.newVar(), s.newVar()
		vars := []Var{a, b, sink}
		fired := map[fireKey]int{}
		for i, v := range vars {
			i := i
			s.onToken(v, func(tok Token) {
				fired[fireKey{i, tok}]++
				// Triggers run right after their token's delivery advanced
				// the prefix, so the planes must already match it here.
				checkTokenBits(t, s)
			})
		}
		s.addEdge(b, sink)
		// Round 1: both sets spill (overlapping, so merging must reconcile
		// tokens each side already processed) and are fully processed.
		for k := 0; k < 16; k++ {
			s.addToken(a, Token(k))
			s.addToken(b, Token(8+k))
		}
		s.solve()
		cps := []*checkpoint{s.checkpoint()}
		// Round 2: fresh pending tokens on both sides, then close the a↔b
		// cycle and merge while every one of them is still queued.
		for k := 0; k < 4; k++ {
			s.addToken(a, Token(100+k))
			s.addToken(b, Token(200+k))
		}
		s.addEdge(a, b)
		s.addEdge(b, a)
		if merge {
			if pa, pb := len(s.state(a).tokens)-s.state(a).delivered, len(s.state(b).tokens)-s.state(b).delivered; pa == 0 || pb == 0 {
				t.Fatalf("merge without pending tokens on both sides: %d and %d", pa, pb)
			}
			if s.state(a).bits == nil || s.state(b).bits == nil {
				t.Fatal("merge of sets that did not spill")
			}
			s.collapse([]Var{a, b})
		}
		s.solve()
		cps = append(cps, s.checkpoint())
		return vars, cps, fired
	}

	sr := newReferenceSolver()
	varsR, cpsR, firedR := run(sr, false)
	arms := []struct {
		name    string
		workers int
		inline  int
	}{
		{"epoch/inline", 1, saved},
		{"epoch/concurrent", 2, 0},
	}
	for _, arm := range arms {
		inlineFrontierMax = arm.inline
		s := newSolver()
		s.configureParallel(arm.workers)
		vars, cps, fired := run(s, true)
		if s.swaps == 0 {
			t.Fatalf("%s: the out-of-order swap path never ran", arm.name)
		}
		checkTokenBits(t, s)
		for i, v := range vars {
			if got, want := sortedTokens(s.tokens(v)), sortedTokens(sr.tokens(varsR[i])); !tokensEqual(got, want) {
				t.Fatalf("%s: var %d final set %v, reference %v", arm.name, i, got, want)
			}
			for k := range cps {
				got := sortedTokens(s.tokensAt(cps[k], v))
				want := sortedTokens(sr.tokensAt(cpsR[k], varsR[i]))
				if !tokensEqual(got, want) {
					t.Fatalf("%s: var %d checkpoint %d view %v, reference %v", arm.name, i, k, got, want)
				}
			}
		}
		if len(fired) != len(firedR) {
			t.Fatalf("%s: %d trigger firings, reference %d", arm.name, len(fired), len(firedR))
		}
		for k, n := range fired {
			if n != 1 || firedR[k] != 1 {
				t.Fatalf("%s: trigger %d fired %d times for token %d (reference %d)", arm.name, k.v, n, k.t, firedR[k])
			}
		}
	}
}

// TestSolverQueueReuse checks that interleaved solve rounds (as hint
// injection does: constraints added after a first fixpoint) still deliver
// every token exactly once per trigger.
func TestSolverQueueReuse(t *testing.T) {
	s := newSolver()
	a, b := s.newVar(), s.newVar()
	s.addEdge(a, b)
	fired := map[Token]int{}
	s.onToken(b, func(tok Token) { fired[tok]++ })
	for i := 0; i < 2*queueCompactMin; i++ {
		s.addToken(a, Token(i))
	}
	s.solve()
	// Second round on a drained queue.
	for i := 2 * queueCompactMin; i < 2*queueCompactMin+10; i++ {
		s.addToken(a, Token(i))
	}
	s.solve()
	if len(fired) != 2*queueCompactMin+10 {
		t.Fatalf("trigger saw %d tokens, want %d", len(fired), 2*queueCompactMin+10)
	}
	for tok, n := range fired {
		if n != 1 {
			t.Fatalf("token %d fired %d times", tok, n)
		}
	}
}

// TestSolverDeepChain propagates tokens down a long edge chain — the shape
// that made the former queue[1:] head pop quadratic.
func TestSolverDeepChain(t *testing.T) {
	const depth = 500
	s := newSolver()
	vars := make([]Var, depth)
	for i := range vars {
		vars[i] = s.newVar()
	}
	for i := 0; i+1 < depth; i++ {
		s.addEdge(vars[i], vars[i+1])
	}
	for k := 0; k < 3; k++ {
		s.addToken(vars[0], Token(k))
	}
	s.solve()
	if got := s.size(vars[depth-1]); got != 3 {
		t.Fatalf("tail received %d tokens, want 3", got)
	}
	iters, delivered := s.stats()
	if iters == 0 || delivered == 0 {
		t.Fatalf("stats not recorded: iters=%d delivered=%d", iters, delivered)
	}
}
