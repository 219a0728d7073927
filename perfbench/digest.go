package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/loc"
)

// graphDigest hashes a call graph canonically over everything
// callgraph.Graph.Equal compares (sites with their enclosing functions,
// edges, functions, native-resolved marks), so two graphs have equal
// digests exactly when they are Equal.
func graphDigest(g *callgraph.Graph) string {
	lines := make([]string, 0, len(g.Sites)+len(g.Funcs)+len(g.NativeResolved)+g.NumEdges())
	for s, f := range g.Sites {
		lines = append(lines, "S "+locKey(s)+" "+locKey(f))
	}
	for s, ts := range g.Edges {
		lines = append(lines, "K "+locKey(s))
		for t := range ts {
			lines = append(lines, "E "+locKey(s)+" "+locKey(t))
		}
	}
	for f := range g.Funcs {
		lines = append(lines, "F "+locKey(f))
	}
	for s := range g.NativeResolved {
		lines = append(lines, "N "+locKey(s))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

func locKey(l loc.Loc) string { return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Col) }
