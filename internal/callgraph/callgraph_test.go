package callgraph

import (
	"math"
	"testing"

	"repro/internal/loc"
)

func site(line int) loc.Loc  { return loc.Loc{File: "/app/a.js", Line: line, Col: 1} }
func fn(line int) FuncID     { return loc.Loc{File: "/app/a.js", Line: line, Col: 10} }
func mod(path string) FuncID { return ModuleFunc(path) }

func TestEdgeAndSiteCounting(t *testing.T) {
	g := New()
	g.AddSite(site(1), mod("/app/a.js"))
	g.AddSite(site(2), mod("/app/a.js"))
	g.AddSite(site(3), fn(100))
	g.AddEdge(site(1), fn(10))
	g.AddEdge(site(1), fn(20)) // polymorphic
	g.AddEdge(site(2), fn(10))
	g.AddEdge(site(2), fn(10)) // duplicate

	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := g.NumSites(); got != 3 {
		t.Errorf("NumSites = %d, want 3", got)
	}
	if got := g.ResolvedSites(); got != 2 {
		t.Errorf("ResolvedSites = %d, want 2", got)
	}
	// site(1) has 2 edges → polymorphic; site(2) has 1; site(3) has 0.
	if got := g.MonomorphicSites(); got != 2 {
		t.Errorf("MonomorphicSites = %d, want 2", got)
	}
	if !g.HasEdge(site(1), fn(20)) || g.HasEdge(site(3), fn(10)) {
		t.Error("HasEdge wrong")
	}
}

func TestNativeResolved(t *testing.T) {
	g := New()
	g.AddSite(site(1), mod("/app/a.js"))
	g.MarkNativeResolved(site(1))
	if got := g.ResolvedSites(); got != 1 {
		t.Errorf("native-resolved site not counted: %d", got)
	}
	if g.NumEdges() != 0 {
		t.Error("native resolution must not create edges")
	}
}

func TestReachability(t *testing.T) {
	g := New()
	m := mod("/app/a.js")
	// module → f1 → f2; f3 is an island; f4 called from unreachable f3.
	g.AddSite(site(1), m)
	g.AddEdge(site(1), fn(10))
	g.AddSite(site(2), fn(10))
	g.AddEdge(site(2), fn(20))
	g.AddSite(site(3), fn(30))
	g.AddEdge(site(3), fn(40))
	g.AddFunc(fn(30))

	reach := g.Reachable([]FuncID{m})
	for _, want := range []FuncID{m, fn(10), fn(20)} {
		if !reach[want] {
			t.Errorf("%v should be reachable", want)
		}
	}
	for _, not := range []FuncID{fn(30), fn(40)} {
		if reach[not] {
			t.Errorf("%v should be unreachable", not)
		}
	}
}

func TestReachabilityThroughModules(t *testing.T) {
	g := New()
	mA, mB := mod("/app/a.js"), mod("/dep/b.js")
	// a.js requires b.js; b.js top-level calls f.
	g.AddSite(site(1), mA)
	g.AddEdge(site(1), mB)
	bsite := loc.Loc{File: "/dep/b.js", Line: 1, Col: 1}
	g.AddSite(bsite, mB)
	g.AddEdge(bsite, fn(50))
	reach := g.Reachable([]FuncID{mA})
	if !reach[fn(50)] {
		t.Error("function in required module should be reachable")
	}
}

func TestCyclicReachability(t *testing.T) {
	g := New()
	g.AddSite(site(1), fn(10))
	g.AddEdge(site(1), fn(20))
	g.AddSite(site(2), fn(20))
	g.AddEdge(site(2), fn(10)) // cycle
	reach := g.Reachable([]FuncID{fn(10)})
	if !reach[fn(10)] || !reach[fn(20)] {
		t.Error("cycle not fully reachable")
	}
}

func TestMetrics(t *testing.T) {
	g := New()
	m := mod("/app/a.js")
	g.AddSite(site(1), m)
	g.AddSite(site(2), m)
	g.AddEdge(site(1), fn(10))
	met := g.ComputeMetrics([]FuncID{m})
	if met.CallEdges != 1 {
		t.Errorf("CallEdges = %d", met.CallEdges)
	}
	if met.ReachableFunctions != 1 { // module funcs excluded
		t.Errorf("ReachableFunctions = %d", met.ReachableFunctions)
	}
	if met.ResolvedPct != 50 {
		t.Errorf("ResolvedPct = %v", met.ResolvedPct)
	}
	if met.MonomorphicPct != 100 {
		t.Errorf("MonomorphicPct = %v", met.MonomorphicPct)
	}
}

func TestCompareWithDynamic(t *testing.T) {
	static := New()
	dynamic := New()
	// Dynamic truth: s1→f10, s1→f20, s2→f30.
	dynamic.AddEdge(site(1), fn(10))
	dynamic.AddEdge(site(1), fn(20))
	dynamic.AddEdge(site(2), fn(30))
	// Static: finds s1→f10 (hit), s1→f99 (spurious), s2→f30 (hit).
	static.AddEdge(site(1), fn(10))
	static.AddEdge(site(1), fn(99))
	static.AddEdge(site(2), fn(30))

	acc := CompareWithDynamic(static, dynamic)
	if acc.DynEdges != 3 {
		t.Errorf("DynEdges = %d", acc.DynEdges)
	}
	// Recall: 2 of 3 dynamic edges found.
	if acc.Recall < 66 || acc.Recall > 67 {
		t.Errorf("Recall = %v", acc.Recall)
	}
	// Per-call precision: site1 = 1/2, site2 = 1/1 → avg 75%.
	if acc.Precision != 75 {
		t.Errorf("Precision = %v", acc.Precision)
	}
}

func TestComparePrecisionDeterministic(t *testing.T) {
	// Per-site ratios 1/3, 1/5, 1/7, ... are not exactly representable, so
	// the average depends on the summation order; it must be the sorted
	// site order every time.
	static, dynamic := New(), New()
	const nSites = 400
	for i := 1; i <= nSites; i++ {
		s := site(i)
		dynamic.AddEdge(s, fn(100000))
		static.AddEdge(s, fn(100000))
		for k := 1; k < 2*(i%7)+2; k++ {
			static.AddEdge(s, fn(100000+k))
		}
	}
	want := 0.0
	for i := 1; i <= nSites; i++ {
		want += 1 / float64(len(static.Edges[site(i)]))
	}
	want = 100 * want / nSites
	for rep := 0; rep < 50; rep++ {
		if got := CompareWithDynamic(static, dynamic).Precision; got != want {
			t.Fatalf("call %d: Precision = %v (bits %x), want sorted-order sum %v (bits %x)",
				rep, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestCompareEmptyDynamic(t *testing.T) {
	acc := CompareWithDynamic(New(), New())
	if acc.Recall != 0 || acc.Precision != 0 || acc.DynEdges != 0 {
		t.Errorf("empty comparison = %+v", acc)
	}
}

func TestSortedSitesAndTargets(t *testing.T) {
	g := New()
	g.AddSite(site(3), mod("/app/a.js"))
	g.AddSite(site(1), mod("/app/a.js"))
	g.AddEdge(site(1), fn(30))
	g.AddEdge(site(1), fn(10))
	ss := g.SortedSites()
	if len(ss) != 2 || ss[0] != site(1) {
		t.Errorf("SortedSites = %v", ss)
	}
	ts := g.Targets(site(1))
	if len(ts) != 2 || !ts[0].Before(ts[1]) {
		t.Errorf("Targets = %v", ts)
	}
}

func TestModuleFunc(t *testing.T) {
	m := ModuleFunc("/app/x.js")
	if !IsModuleFunc(m) {
		t.Error("module func not recognized")
	}
	if IsModuleFunc(fn(3)) {
		t.Error("ordinary func misclassified")
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	g := New()
	g.AddSite(site(1), mod("/app/a.js"))
	g.AddFunc(fn(10))
	g.AddEdge(site(1), fn(10))
	g.MarkNativeResolved(site(2))

	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Fatal("clone not equal to original")
	}
	// Mutating the original must not leak into the clone (the incremental
	// analysis extends the live graph after snapshotting).
	g.AddEdge(site(1), fn(20))
	g.AddEdge(site(3), fn(30))
	g.AddSite(site(4), fn(10))
	g.MarkNativeResolved(site(5))
	if c.HasEdge(site(1), fn(20)) || c.HasEdge(site(3), fn(30)) {
		t.Error("clone shares edge storage with original")
	}
	if c.NumSites() != 1 || c.NumEdges() != 1 || len(c.NativeResolved) != 1 {
		t.Errorf("clone mutated: sites=%d edges=%d native=%d", c.NumSites(), c.NumEdges(), len(c.NativeResolved))
	}
	if g.Equal(c) {
		t.Error("diverged graphs still compare equal")
	}
}

func TestEqualDetectsEachComponent(t *testing.T) {
	base := func() *Graph {
		g := New()
		g.AddSite(site(1), mod("/app/a.js"))
		g.AddEdge(site(1), fn(10))
		g.MarkNativeResolved(site(2))
		return g
	}
	a := base()
	for _, mut := range []func(*Graph){
		func(g *Graph) { g.AddSite(site(9), fn(10)) },
		func(g *Graph) { g.AddEdge(site(1), fn(99)) },
		func(g *Graph) { g.AddFunc(fn(77)) },
		func(g *Graph) { g.MarkNativeResolved(site(9)) },
		func(g *Graph) { g.Sites[site(1)] = fn(42) },
	} {
		b := base()
		mut(b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("mutation not detected: %+v vs %+v", a, b)
		}
	}
}
