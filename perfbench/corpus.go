package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/experiments"
	"repro/internal/static"
)

// corpusRecord is the checked result of evaluating one corpus project: the
// call-graph metrics of the baseline and extended graphs, their accuracy
// against the dynamic call graph, the hint count, and the §4 ablation and
// §6 extension rows where the evaluation produces them.
type corpusRecord struct {
	Hints      int                `json:"hints"`
	Faults     int                `json:"faults"`
	Base       callgraph.Metrics  `json:"base"`
	Ext        callgraph.Metrics  `json:"ext"`
	DynEdges   int                `json:"dyn_edges"`
	BaseAcc    callgraph.Accuracy `json:"base_acc"`
	ExtAcc     callgraph.Accuracy `json:"ext_acc"`
	Ablation   *ablationRecord    `json:"ablation,omitempty"`
	Extensions *extensionRecord   `json:"extensions,omitempty"`
}

type ablationRecord struct {
	RelationalEdges, NameOnlyEdges             int
	RelationalMonomorphic, NameOnlyMonomorphic float64
	RelationalPrecision, NameOnlyPrecision     float64
}

// extensionRecord leaves out the hint-cache hit/miss split, which depends
// on the order in which projects share the cache; their sum does not.
type extensionRecord struct {
	EdgesPlain, EdgesUnknownArg, EdgesEvalCode, EdgesBoth int
	Packages, CacheLookups                                int
}

// rounded returns r with every percentage rounded to 9 significant
// digits: precision is an average accumulated in map order, so its last
// bits vary from run to run.
func (r corpusRecord) rounded() corpusRecord {
	metrics := func(m *callgraph.Metrics) {
		m.ResolvedPct, m.MonomorphicPct = round9(m.ResolvedPct), round9(m.MonomorphicPct)
	}
	acc := func(a *callgraph.Accuracy) { a.Recall, a.Precision = round9(a.Recall), round9(a.Precision) }
	metrics(&r.Base)
	metrics(&r.Ext)
	acc(&r.BaseAcc)
	acc(&r.ExtAcc)
	if a := r.Ablation; a != nil {
		c := *a
		c.RelationalMonomorphic, c.NameOnlyMonomorphic = round9(c.RelationalMonomorphic), round9(c.NameOnlyMonomorphic)
		c.RelationalPrecision, c.NameOnlyPrecision = round9(c.RelationalPrecision), round9(c.NameOnlyPrecision)
		r.Ablation = &c
	}
	return r
}

func round9(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 9, 64), 64) // always parses
	return v
}

func ablationOf(a *experiments.AblationOutcome) *ablationRecord {
	return &ablationRecord{a.RelationalEdges, a.NameOnlyEdges, a.RelationalMonomorphic,
		a.NameOnlyMonomorphic, a.RelationalPrecision, a.NameOnlyPrecision}
}

func extensionOf(e *experiments.ExtensionOutcome) *extensionRecord {
	return &extensionRecord{e.EdgesPlain, e.EdgesUnknownArg, e.EdgesEvalCode, e.EdgesBoth,
		e.Packages, e.CacheHits + e.CacheMisses}
}

// extensionProjects are the projects the §6 extension study runs on: the
// first 12 with dynamic call graphs, as `evaluate -extensions` picks them.
func extensionProjects(bs []*corpus.Benchmark) map[string]bool {
	set := map[string]bool{}
	for _, b := range bs {
		if b.HasDynCG && len(set) < 12 {
			set[b.Project.Name] = true
		}
	}
	return set
}

// hintCache is one pass's shared §6 hint cache; approx.Cache is not safe
// for concurrent use, so extension runs of one pass take turns.
type hintCache struct {
	mu    sync.Mutex
	cache *approx.Cache
}

func coldBenchmark(b *corpus.Benchmark) *corpus.Benchmark {
	return &corpus.Benchmark{Project: freshProject(b.Project), HasDynCG: b.HasDynCG}
}

// evaluateProject is one corpus op exactly as `evaluate -all` runs it for
// one project: the evaluation (approx, incremental baseline+extended solve
// with the piggy-backed ablation arm, dynamic call graph, accuracy), the
// ablation row reusing it, and, for extension projects, the §6 variants
// on a fresh copy of the project.
func evaluateProject(b *corpus.Benchmark, hc *hintCache) (corpusRecord, error) {
	outs, err := experiments.RunCorpusOpts([]*corpus.Benchmark{b},
		experiments.Options{WithDynCG: true, WithAblation: true, Workers: 1})
	if err != nil {
		return corpusRecord{}, err
	}
	o := outs[0]
	rec := corpusRecord{Hints: o.HintCount, Faults: len(o.Faults), Base: o.Base, Ext: o.Ext,
		DynEdges: o.DynEdges, BaseAcc: o.BaseAcc, ExtAcc: o.ExtAcc}
	if b.HasDynCG {
		a, err := experiments.RunAblationReusing(b, o)
		if err != nil {
			return rec, fmt.Errorf("ablation: %w", err)
		}
		rec.Ablation = ablationOf(a)
	}
	if hc != nil {
		hc.mu.Lock()
		e, err := experiments.RunExtensions(freshProject(b.Project), hc.cache, o)
		hc.mu.Unlock()
		if err != nil {
			return rec, fmt.Errorf("extensions: %w", err)
		}
		rec.Extensions = extensionOf(e)
	}
	return rec, nil
}

// tracedEvaluation is the same op decomposed into the benchmark's own calls
// into each layer, one span per call. Two parts cannot be replayed through
// public functions: the rolled-back ablation arm of the incremental solve
// (so the ablation row is solved standalone by RunAblationReusing, which
// also rebuilds its dynamic call graph) and the baseline condensation the
// extension variants pre-unify with. Both change effort, not results.
func tracedEvaluation(t *tracer, c counts, b *corpus.Benchmark, hc *hintCache, paths []string) (rec corpusRecord, err error) {
	p := b.Project
	step := func(name string, f func() error) { t.step(&err, name, f) }
	step("modules", func() error { return parseAll(p, paths) })
	if err == nil {
		_, err = corpus.ComputeStats(b)
	}
	var ar *approx.Result
	step("approx", func() (e error) { ar, e = approx.Run(p, approx.Options{}); return })
	var base, ext *static.Result
	step("static", func() (e error) {
		base, ext, e = static.AnalyzeBoth(p, static.Options{
			Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()})
		return
	})
	var dr *dyncg.Result
	if b.HasDynCG {
		step("dyncg", func() (e error) { dr, e = dyncg.Build(p, dyncg.Options{}); return })
	}
	if err != nil {
		return rec, err
	}
	c.approx(ar)
	c.static(base, ext)
	rec.Hints = ar.Hints.Count()
	rec.Faults = len(ar.Faults) + len(ext.Faults)
	t.do("callgraph", func() {
		rec.Base, rec.Ext = base.Metrics(), ext.Metrics()
		base.Graph.Reachable(base.MainEntries)
		ext.Graph.Reachable(ext.MainEntries)
		if dr != nil {
			rec.DynEdges = dr.Graph.NumEdges()
			rec.BaseAcc = callgraph.CompareWithDynamic(base.Graph, dr.Graph)
			rec.ExtAcc = callgraph.CompareWithDynamic(ext.Graph, dr.Graph)
		}
	})
	if dr != nil {
		c.dyncg(dr)
		rec.Faults += len(dr.Faults)
	}
	prior := &experiments.Outcome{Name: p.Name, HasDynCG: b.HasDynCG, Ext: rec.Ext, ExtAcc: rec.ExtAcc, DynEdges: rec.DynEdges}
	if b.HasDynCG {
		step("experiments.ablation", func() error {
			a, e := experiments.RunAblationReusing(b, prior)
			if e == nil {
				rec.Ablation = ablationOf(a)
			}
			return e
		})
	}
	if hc != nil {
		step("experiments.extensions", func() error {
			e, err := experiments.RunExtensions(freshProject(p), hc.cache, prior)
			if err == nil {
				rec.Extensions = extensionOf(e)
			}
			return err
		})
	}
	return rec, err
}

// checkCorpus compares one op's record with the committed reference and
// with the dynamic-call-graph oracle.
func checkCorpus(name string, got corpusRecord, ref map[string]corpusRecord) error {
	want, ok := ref[name]
	if !ok {
		return fmt.Errorf("%s: no reference", name)
	}
	if got.Faults > want.Faults {
		return fmt.Errorf("%s: %d contained faults, reference has %d", name, got.Faults, want.Faults)
	}
	if got.DynEdges > 0 && got.ExtAcc.Recall != 100 {
		return fmt.Errorf("%s: extended graph misses dynamic edges (recall %.2f%%)", name, got.ExtAcc.Recall)
	}
	if g, w := mustJSON(got.rounded()), mustJSON(want.rounded()); g != w {
		return fmt.Errorf("%s: result differs from reference:\n got  %s\n want %s", name, g, w)
	}
	return nil
}

// loadCorpus generates the corpus setupReps times, timing each, and
// returns the last copy with the dispatch order of pass `index`: the
// index-th permutation drawn from the seed.
func loadCorpus(seed int64, index int) (bs []*corpus.Benchmark, order []int, setup []float64) {
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		bs = corpus.All()
		setup = append(setup, time.Since(start).Seconds())
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i <= index; i++ {
		order = rng.Perm(len(bs))
	}
	return bs, order, setup
}

// runCorpus runs the corpus workload: passes over the whole corpus, each in
// its own process, until their summed wall time reaches the budget.
func runCorpus(cfg config) (*runResult, error) {
	if cfg.trace {
		return traceCorpus(cfg)
	}
	return runRepeated(cfg, "corpus")
}

// corpusPass is one repetition of the corpus workload: every project once,
// in the pass's seeded order, by a closed loop of NumCPU workers. Every op
// gets a fresh copy of its project, so each is cold.
func corpusPass(cfg config, index int) (*repResult, error) {
	ref, err := loadRef[map[string]corpusRecord](cfg.refPath("corpus"))
	if err != nil {
		return nil, err
	}
	bs, order, setup := loadCorpus(cfg.seed, index)
	r := &repResult{Setup: setup}
	extSet := extensionProjects(bs)
	hc := &hintCache{cache: approx.NewCache()}
	var (
		mu   sync.Mutex // guards r and next
		next int
		wg   sync.WaitGroup
	)
	start, cpu0 := time.Now(), processCPU()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(order) {
					return
				}
				b := coldBenchmark(bs[order[i]])
				var c *hintCache
				if extSet[b.Project.Name] {
					c = hc
				}
				opStart := time.Now()
				rec, err := evaluateProject(b, c)
				d := time.Since(opStart)
				if err == nil {
					err = checkCorpus(b.Project.Name, rec, ref)
				}
				mu.Lock()
				r.Attempted++
				if err != nil {
					r.Failed++
					if len(r.Failures) < 10 {
						r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", b.Project.Name, err))
					}
				} else {
					r.Lat = append(r.Lat, ms(d))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.Wall, r.CPU = time.Since(start).Seconds(), (processCPU() - cpu0).Seconds()
	return r, nil
}

// traceCorpus runs whole passes over the corpus at concurrency 1 until the
// time is up, each project traced and untraced in turn.
func traceCorpus(cfg config) (*runResult, error) {
	ref, err := loadRef[map[string]corpusRecord](cfg.refPath("corpus"))
	if err != nil {
		return nil, err
	}
	bs, order, setup := loadCorpus(cfg.seed, 0)
	res := &runResult{setup: setup}
	extSet := extensionProjects(bs)
	tr := newTraceRun()
	deadline := time.Now().Add(cfg.seconds)
	gc0 := readGC()
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		// Each side has its own §6 hint cache for the pass.
		plainHC, tracedHC := &hintCache{cache: approx.NewCache()}, &hintCache{cache: approx.NewCache()}
		for k, i := range order {
			name := bs[i].Project.Name
			pick := func(hc *hintCache) *hintCache {
				if extSet[name] {
					return hc
				}
				return nil
			}
			plain := func() error {
				b := coldBenchmark(bs[i])
				_, err := tracedEvaluation(nil, counts{}, b, pick(plainHC), b.Project.SortedPaths())
				return err
			}
			traced := func() {
				b := coldBenchmark(bs[i])
				p := b.Project
				paths := p.SortedPaths()
				tr.t.beginOp()
				res.attempted++
				err := probeFrontEnd(tr.t, tr.c, p.Files, paths)
				var rec corpusRecord
				start := time.Now()
				if err == nil {
					tr.t.do("op", func() { rec, err = tracedEvaluation(tr.t, tr.c, b, pick(tracedHC), paths) })
				}
				d := time.Since(start)
				tr.c.parses(p.ParseCounts())
				if err == nil {
					err = checkCorpus(name, rec, ref)
				}
				if err != nil {
					res.fail("%s: %v", name, err)
					return
				}
				res.wall += d
				res.lat = append(res.lat, ms(d))
			}
			if err := tr.pair(k, plain, traced); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			tr.ops++
		}
	}
	tr.gc = gcDelta(gc0, readGC())
	res.cpu = tr.t.opCPU()
	res.layers, res.spans = layerMetrics(tr), tr.t
	res.notes = append(res.notes, "traced at concurrency 1, each op paired with the same calls untraced; lexer/parser probes re-lex and re-parse each project outside the op span")
	return res, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
