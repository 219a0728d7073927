package static

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
)

// sortedTokens returns a sorted copy of a token slice, for set comparison
// between engines that may process (and therefore order) tokens differently.
func sortedTokens(ts []Token) []Token {
	out := append([]Token(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fireKey identifies one (trigger variable, token) delivery to a trigger.
type fireKey struct {
	v int
	t Token
}

// randomOps drives one engine through r rounds of randomized constraint
// additions with a solve and checkpoint after each round, mirroring how
// the analysis interleaves injection and solving. Triggers are attached to
// every third variable and themselves add constraints when they fire (as
// call-resolution triggers do), with the added constraint a deterministic
// function of (variable, token) so both engines grow identically. Returns
// the per-round checkpoints and the trigger fire counts.
func randomOps(seed int64, s *solver, nVars, rounds int) ([]*checkpoint, map[fireKey]int) {
	rng := rand.New(rand.NewSource(seed))
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = s.newVar()
	}
	fired := map[fireKey]int{}
	for i := 0; i < nVars; i += 3 {
		i := i
		s.onToken(vars[i], func(tok Token) {
			fired[fireKey{i, tok}]++
			if int(tok)%3 == 0 {
				s.addEdge(vars[(i*7+int(tok))%nVars], vars[(i*13+int(tok)*5)%nVars])
			}
			if int(tok)%5 == 0 && int(tok) < 1000 {
				// Cap the cascade: trigger-minted tokens (≥1000) must not
				// mint further tokens, or the system has no finite fixpoint.
				s.addToken(vars[(i+int(tok))%nVars], Token(int(tok)+1000))
			}
		})
	}
	var cps []*checkpoint
	for r := 0; r < rounds; r++ {
		ops := 60 + rng.Intn(120)
		for i := 0; i < ops; i++ {
			if rng.Intn(3) == 0 {
				s.addToken(vars[rng.Intn(nVars)], Token(rng.Intn(40)))
			} else {
				s.addEdge(vars[rng.Intn(nVars)], vars[rng.Intn(nVars)])
			}
		}
		s.solve()
		cps = append(cps, s.checkpoint())
	}
	return cps, fired
}

// TestUnifyingSolverMatchesReference is the randomized differential test
// of the cycle-collapsing epoch engine against the no-unification reference
// solver: identical random constraint graphs (dense enough to force many
// cycles), with checkpoints taken at every intermediate fixpoint. Final
// sets, every checkpoint's frozen views, and trigger deliveries (exactly
// once per (trigger, token), even when distinct cycle members carry
// triggers) must all agree. TestParallelSolverMatchesSequential carries the
// same comparison across worker counts.
func TestUnifyingSolverMatchesReference(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		su := newSolver()
		sr := newReferenceSolver()
		cpsU, firedU := randomOps(seed, su, nVars, rounds)
		cpsR, firedR := randomOps(seed, sr, nVars, rounds)
		checkTokenBits(t, su)
		checkTokenBits(t, sr)

		for v := 0; v < nVars; v++ {
			gu := sortedTokens(su.tokens(Var(v)))
			gr := sortedTokens(sr.tokens(Var(v)))
			if !tokensEqual(gu, gr) {
				t.Fatalf("seed %d: var %d final sets differ: unifying %v, reference %v", seed, v, gu, gr)
			}
			for k := range cpsU {
				fu := sortedTokens(su.tokensAt(cpsU[k], Var(v)))
				fr := sortedTokens(sr.tokensAt(cpsR[k], Var(v)))
				if !tokensEqual(fu, fr) {
					t.Fatalf("seed %d: var %d checkpoint %d frozen views differ: unifying %v, reference %v",
						seed, v, k, fu, fr)
				}
			}
		}
		if len(firedU) != len(firedR) {
			t.Fatalf("seed %d: trigger deliveries differ: unifying %d pairs, reference %d", seed, len(firedU), len(firedR))
		}
		for k, n := range firedU {
			if n != 1 {
				t.Fatalf("seed %d: trigger on var %d fired %d times for token %d", seed, k.v, n, k.t)
			}
			if firedR[k] != 1 {
				t.Fatalf("seed %d: reference missed delivery %v", seed, k)
			}
		}
		if st := su.parallelStats(); st.Epochs == 0 {
			t.Fatalf("seed %d: the epoch engine recorded no epochs", seed)
		}
	}
}

// TestCopyElimEquivalence checks that offline copy substitution (and cycle
// collapsing) is invisible in results: the epoch engine, which substitutes
// copies, and the no-unify reference, which does not, produce identical
// call graphs, metrics, and system sizes in baseline and extended analyses
// on a corpus sample. Only effort counters may differ.
func TestCopyElimEquivalence(t *testing.T) {
	benches := corpus.All()
	if len(benches) > 24 {
		benches = benches[:24]
	}
	for _, b := range benches {
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			t.Fatalf("%s: approx: %v", b.Project.Name, err)
		}
		for _, mode := range []Mode{Baseline, WithHints} {
			opts := Options{Mode: mode}
			if mode != Baseline {
				opts.Hints = ar.Hints
			}
			on, err := Analyze(b.Project, opts)
			if err != nil {
				t.Fatalf("%s: %v", b.Project.Name, err)
			}
			optsOff := opts
			optsOff.reference = true
			off, err := Analyze(b.Project, optsOff)
			if err != nil {
				t.Fatalf("%s: %v", b.Project.Name, err)
			}
			if !on.Graph.Equal(off.Graph) {
				t.Errorf("%s mode %d: call graphs differ with copy elimination (on %d edges, off %d)",
					b.Project.Name, mode, on.Graph.NumEdges(), off.Graph.NumEdges())
			}
			if m1, m2 := on.Metrics(), off.Metrics(); m1 != m2 {
				t.Errorf("%s mode %d: metrics differ: %v vs %v", b.Project.Name, mode, m1, m2)
			}
			if on.NumVars != off.NumVars || on.NumTokens != off.NumTokens {
				t.Errorf("%s mode %d: system size differs: %d/%d vs %d/%d", b.Project.Name, mode,
					on.NumVars, on.NumTokens, off.NumVars, off.NumTokens)
			}
		}
	}
}
