package main

import (
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/parser"
)

func requestsOf(seed int64, n int) []request {
	g := newRequestGen(seed, editSessions)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	return reqs
}

func TestRequestGenDeterministic(t *testing.T) {
	a, b := requestsOf(7, 500), requestsOf(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, requestsOf(8, 500)) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestRequestGenMixAndEdits(t *testing.T) {
	reqs := requestsOf(1, 8000) // 100 whole blocks
	kinds := map[reqKind]int{}
	state := map[int]int{}
	for _, r := range reqs {
		kinds[r.kind]++
		cur, seen := state[r.session]
		if !seen {
			cur = -1
		}
		switch r.kind {
		case reqEdit:
			if r.variant == cur || r.variant < 0 || r.variant >= editVariants {
				t.Fatalf("edit to variant %d from %d does not change the file", r.variant, cur)
			}
			state[r.session] = r.variant
		default:
			if r.variant != cur {
				t.Fatalf("%s request reports variant %d, session is in %d", r.kind, r.variant, cur)
			}
		}
	}
	for kind, want := range map[reqKind]int{reqEdit: 6400, reqReanalyze: 800, reqReopen: 800} {
		if kinds[kind] != want {
			t.Errorf("%d %s requests in 100 blocks, want %d", kinds[kind], kind, want)
		}
	}
}

// TestEditsParsePreserving parses every state of every session's hot file.
func TestEditsParsePreserving(t *testing.T) {
	ps := editProjects()
	if len(ps) != editSessions {
		t.Fatalf("%d edit projects, want %d", len(ps), editSessions)
	}
	for _, p := range ps {
		hot := hotFile(p)
		orig := p.Files[hot]
		for v := 0; v < editVariants; v++ {
			src := editedSource(orig, v)
			if src == orig || src == editedSource(orig, (v+1)%editVariants) {
				t.Errorf("%s %s: variant %d does not change the file", p.Name, hot, v)
			}
			if _, err := parser.Parse(hot, src); err != nil {
				t.Errorf("%s %s: variant %d does not parse: %v", p.Name, hot, v, err)
			}
		}
	}
	// A file ending in a line comment or an unterminated expression
	// statement still parses after an edit.
	for _, orig := range []string{"var a = 1 // trailing", "var b = 2\nb", "f()"} {
		for v := 0; v < editVariants; v++ {
			if _, err := parser.Parse("/x.js", editedSource(orig, v)); err != nil {
				t.Errorf("%q variant %d: %v", orig, v, err)
			}
		}
	}
}

// TestDynamicWriteEditsChangeHints checks the premise of the odd variants:
// approximate interpretation observes the added write, so the hint set of
// the edited project grows.
func TestDynamicWriteEditsChangeHints(t *testing.T) {
	p := editProjects()[0]
	hot := hotFile(p)
	count := func(v int) int {
		q := freshProject(p)
		q.Files[hot] = editedSource(p.Files[hot], v)
		ar, err := approx.Run(q, approx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ar.Hints.Count()
	}
	orig, plain, dyn := count(-1), count(0), count(1)
	if plain != orig || dyn <= orig {
		t.Errorf("hints: original %d, text-only edit %d, dynamic-write edit %d", orig, plain, dyn)
	}
}
