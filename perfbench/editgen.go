package main

import (
	"fmt"
	"math/rand"
)

// editVariants is how many distinct edits a session's hot file can take.
// Every edit appends one statement to the file's original text, so a
// session is always in one of 1+editVariants states and each state has a
// committed reference digest.
const editVariants = 4

// editStatement is the statement variant v appends. Even variants change
// only the text; odd variants write a property under a computed key, which
// approximate interpretation observes as a dynamic write, so the hint set
// changes and the edit re-runs every layer.
func editStatement(v int) string {
	if v%2 == 0 {
		return fmt.Sprintf("\n;var __perfbenchEdit = %d;\n", v)
	}
	return fmt.Sprintf("\n;var __perfbenchObj = {}; var __perfbenchKey = \"k\" + %d;"+
		" __perfbenchObj[__perfbenchKey] = function () { return %d; };\n", v, v)
}

// editedSource is a hot file's text in state v (-1 is the original). The
// leading newline ends a trailing line comment and the leading semicolon
// ends a trailing expression, so the result parses whenever orig does.
func editedSource(orig string, v int) string {
	if v < 0 {
		return orig
	}
	return orig + editStatement(v)
}

type reqKind uint8

const (
	reqEdit      reqKind = iota // one-file edit of the session's hot file
	reqReanalyze                // no change: the session-reuse path
	reqReopen                   // fresh session over the same files, parses from the store
)

func (k reqKind) String() string {
	return [...]string{"edit", "reanalyze", "reopen"}[k]
}

type request struct {
	kind    reqKind
	session int
	variant int // the hot file's state after the request
}

// requestGen produces the edit workload's seeded request stream: 80%
// edits, 10% unchanged re-analyses and 10% reopens. The stream is
// stratified so that every run serves nearly the same mix whatever the
// seed: it is made of blocks in which each session gets exactly 8 edits, 1
// re-analysis and 1 reopen, in a seeded order. An edit moves the session's
// hot file to a seeded variant other than its current one, so it always
// changes content.
type requestGen struct {
	rng     *rand.Rand
	state   []int // per session, the hot file's current variant
	pending []request
}

// blockMix is one session's share of a block.
var blockMix = []reqKind{reqEdit, reqEdit, reqEdit, reqEdit, reqEdit, reqEdit, reqEdit, reqEdit, reqReanalyze, reqReopen}

func newRequestGen(seed int64, sessions int) *requestGen {
	g := &requestGen{rng: rand.New(rand.NewSource(seed)), state: make([]int, sessions)}
	for i := range g.state {
		g.state[i] = -1
	}
	return g
}

// blockDone reports whether the stream is at a block boundary.
func (g *requestGen) blockDone() bool { return len(g.pending) == 0 }

func (g *requestGen) next() request {
	if len(g.pending) == 0 {
		for s := range g.state {
			for _, k := range blockMix {
				g.pending = append(g.pending, request{kind: k, session: s})
			}
		}
		g.rng.Shuffle(len(g.pending), func(i, j int) { g.pending[i], g.pending[j] = g.pending[j], g.pending[i] })
	}
	r := g.pending[0]
	g.pending = g.pending[1:]
	cur := g.state[r.session]
	r.variant = cur
	if r.kind == reqEdit {
		if cur < 0 {
			r.variant = g.rng.Intn(editVariants)
		} else if r.variant = g.rng.Intn(editVariants - 1); r.variant >= cur {
			r.variant++
		}
		g.state[r.session] = r.variant
	}
	return r
}
