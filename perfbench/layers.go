package main

import (
	"time"

	"repro/internal/approx"
	"repro/internal/dyncg"
	"repro/internal/static"
)

// counts accumulates what layer results report during a traced run, keyed
// by the per-layer metric (or raw count) they feed.
type counts map[string]float64

func (c counts) approx(ar *approx.Result) {
	c["approx.items"] += float64(ar.ItemsProcessed)
	c["approx.aborted"] += float64(ar.Aborted)
	c["approx.hints"] += float64(ar.Hints.Count())
	c["approx.faults"] += float64(len(ar.Faults))
}

// static records one baseline+extended analysis. The extended result's
// effort, structure and epoch counters are cumulative over both phases;
// solve wall is split per phase.
func (c counts) static(base, ext *static.Result) {
	c["static.solve_ns"] += float64(base.SolveWall + ext.SolveWall)
	c["static.vars"] += float64(ext.NumVars)
	c["static.tokens"] += float64(ext.NumTokens)
	c["static.solve_iterations"] += float64(ext.SolveIterations)
	c["static.tokens_delivered"] += float64(ext.TokensDelivered)
	c["static.redundant_skipped"] += float64(ext.Structure.RedundantSkipped)
	c["static.cycles_collapsed"] += float64(ext.Structure.CyclesCollapsed)
	c["static.vars_unified"] += float64(ext.Structure.VarsUnified)
	p := ext.Parallel
	c["static.scan_ns"] += float64(p.ScanNS)
	c["static.apply_ns"] += float64(p.ApplyNS)
	c["static.tail_ns"] += float64(p.TailNS)
	c["static.sweep_overlap_ns"] += float64(p.SweepOverlapNS)
	c["static.epochs"] += float64(p.Epochs)
	c["static.steals"] += float64(p.Steals)
}

func (c counts) dyncg(dr *dyncg.Result) {
	c["dyncg.edges"] += float64(dr.Graph.NumEdges())
	c["dyncg.entries_failed"] += float64(dr.EntriesFailed)
}

// parses records a project's parse-cache counters for one op.
func (c counts) parses(parses, hits int64) {
	c["modules.parses"] += float64(parses)
	c["modules.parse_hits"] += float64(hits)
}

// traceRun is everything a traced run hands to layerMetrics. Every traced
// op is paired with the same op run untraced (the same calls, with a nil
// tracer) at the same concurrency; the pair's order alternates, so neither
// side systematically runs on a warmer process.
type traceRun struct {
	t     *tracer
	c     counts
	ops   int           // traced ops
	plain time.Duration // wall of the same ops untraced
	gc    gcStats       // runtime GC deltas over all paired ops, both sides
}

func newTraceRun() *traceRun { return &traceRun{t: newTracer(), c: counts{}} }

// pair runs op k's untraced and traced sides. plain's errors end the run;
// traced records its own outcome.
func (tr *traceRun) pair(k int, plain func() error, traced func()) error {
	runPlain := func() error {
		start := time.Now()
		err := plain()
		tr.plain += time.Since(start)
		return err
	}
	if k%2 == 1 {
		traced()
		return runPlain()
	}
	if err := runPlain(); err != nil {
		return err
	}
	traced()
	return nil
}

// perLayer lists every per-layer metric with its unit, in report order.
// BENCHMARK.json's per_layer list must name exactly these (a test checks).
var perLayer = []struct{ name, unit string }{
	{"lexer.tokens", "count"}, {"lexer.ms", "ms"}, {"lexer.alloc_mb", "MB"},
	{"parser.files", "count"}, {"parser.ms", "ms"}, {"parser.cpu_ms", "ms"}, {"parser.alloc_mb", "MB"},
	{"modules.parses", "count"}, {"modules.parse_hits", "count"}, {"modules.parse_hit_ratio", "ratio"},
	{"approx.ms", "ms"}, {"approx.cpu_ms", "ms"}, {"approx.alloc_mb", "MB"}, {"approx.items", "count"},
	{"approx.aborted_ratio", "ratio"}, {"approx.hints", "count"}, {"approx.faults", "count"},
	{"static.gen_ms", "ms"}, {"static.alloc_mb", "MB"}, {"static.vars", "count"}, {"static.tokens", "count"},
	{"static.solve_ms", "ms"}, {"static.cpu_ms", "ms"}, {"static.solve_iterations", "count"},
	{"static.tokens_delivered", "count"}, {"static.redundant_skipped_ratio", "ratio"},
	{"static.cycles_collapsed", "count"}, {"static.vars_unified", "count"},
	{"static.scan_ms", "ms"}, {"static.apply_ms", "ms"}, {"static.serial_tail_ms", "ms"},
	{"static.sweep_overlap_ms", "ms"}, {"static.epochs", "count"}, {"static.steals", "count"},
	{"static.delta_reuse_ratio", "ratio"},
	{"dyncg.ms", "ms"}, {"dyncg.alloc_mb", "MB"}, {"dyncg.edges", "count"}, {"dyncg.entries_failed", "count"},
	{"callgraph.ms", "ms"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_ratio", "ratio"},
	{"cache.bytes_written_mb", "MB"}, {"cache.load_ms", "ms"}, {"cache.store_ms", "ms"},
	{"experiments.self_ms", "ms"}, {"experiments.ablation_ms", "ms"}, {"experiments.extensions_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
	{"share.front_end", "ratio"}, {"share.approx", "ratio"}, {"share.static_gen", "ratio"},
	{"share.static_solve", "ratio"}, {"share.dyncg", "ratio"},
}

// layerMetrics turns a traced run into the per-layer metrics. Times,
// counts and allocations are means per traced op; ratios are taken over the
// whole traced run. A layer that does not run on a workload reads 0.
func layerMetrics(r *traceRun) map[string]metric {
	type agg struct {
		dur, self, cpu time.Duration
		alloc          uint64
	}
	spans := r.t.spans
	self := selfTimes(spans)
	by := map[string]*agg{}
	for i, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.dur += s.dur()
		a.self += self[i]
		a.cpu += s.cpu
		a.alloc += s.alloc
	}
	get := func(name string) agg {
		if a := by[name]; a != nil {
			return *a
		}
		return agg{}
	}
	ops := float64(max(r.ops, 1))
	c := r.c
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 / ops }
	nsMS := func(key string) float64 { return c[key] / 1e6 / ops }
	mb := func(b uint64) float64 { return float64(b) / 1e6 / ops }
	per := func(key string) float64 { return c[key] / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	solve := time.Duration(c["static.solve_ns"])
	opWall := get("op").dur
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), opWall.Seconds()) }

	v := map[string]float64{
		"lexer.tokens": per("lexer.tokens"), "lexer.ms": ms(get("lexer").dur), "lexer.alloc_mb": mb(get("lexer").alloc),
		"parser.files": per("parser.files"), "parser.ms": ms(get("parser").dur),
		"parser.cpu_ms": ms(get("parser").cpu), "parser.alloc_mb": mb(get("parser").alloc),
		"modules.parses": per("modules.parses"), "modules.parse_hits": per("modules.parse_hits"),
		"modules.parse_hit_ratio": ratio(c["modules.parse_hits"], c["modules.parses"]+c["modules.parse_hits"]),
		"approx.ms":               ms(get("approx").dur), "approx.cpu_ms": ms(get("approx").cpu), "approx.alloc_mb": mb(get("approx").alloc),
		"approx.items": per("approx.items"), "approx.aborted_ratio": ratio(c["approx.aborted"], c["approx.items"]),
		"approx.hints": per("approx.hints"), "approx.faults": per("approx.faults"),
		"static.gen_ms": ms(get("static").dur - solve), "static.alloc_mb": mb(get("static").alloc),
		"static.vars": per("static.vars"), "static.tokens": per("static.tokens"),
		"static.solve_ms": ms(solve), "static.cpu_ms": ms(get("static").cpu),
		"static.solve_iterations": per("static.solve_iterations"), "static.tokens_delivered": per("static.tokens_delivered"),
		"static.redundant_skipped_ratio": ratio(c["static.redundant_skipped"], c["static.tokens_delivered"]+c["static.redundant_skipped"]),
		"static.cycles_collapsed":        per("static.cycles_collapsed"), "static.vars_unified": per("static.vars_unified"),
		"static.scan_ms": nsMS("static.scan_ns"), "static.apply_ms": nsMS("static.apply_ns"),
		"static.serial_tail_ms": nsMS("static.tail_ns"), "static.sweep_overlap_ms": nsMS("static.sweep_overlap_ns"),
		"static.epochs": per("static.epochs"), "static.steals": per("static.steals"),
		"static.delta_reuse_ratio": ratio(c["static.delta_reused"], c["static.delta_analyses"]),
		"dyncg.ms":                 ms(get("dyncg").dur), "dyncg.alloc_mb": mb(get("dyncg").alloc),
		"dyncg.edges": per("dyncg.edges"), "dyncg.entries_failed": per("dyncg.entries_failed"),
		"callgraph.ms": ms(get("callgraph").dur),
		"cache.hits":   per("cache.hits"), "cache.misses": per("cache.misses"),
		"cache.hit_ratio":        ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"]),
		"cache.bytes_written_mb": c["cache.bytes_written"] / 1e6 / ops,
		"cache.load_ms":          ms(get("cache.load").dur), "cache.store_ms": ms(get("cache.store").dur),
		"experiments.self_ms":       ms(get("op").self),
		"experiments.ablation_ms":   ms(get("experiments.ablation").dur),
		"experiments.extensions_ms": ms(get("experiments.extensions").dur),
		"runtime.gc_cpu_share":      ratio(r.gc.gcCPU, r.gc.totalCPU),
		"runtime.gc_cycles":         float64(r.gc.cycles) / (2 * ops), // both sides of every pair
		"trace.overhead_ms":         ms(opWall - r.plain),
		"trace.overhead_ratio":      ratio((opWall - r.plain).Seconds(), r.plain.Seconds()),
		"share.front_end":           share(get("modules").self),
		"share.approx":              share(get("approx").self),
		"share.static_gen":          share(get("static").dur - solve),
		"share.static_solve":        share(solve),
		"share.dyncg":               share(get("dyncg").self),
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// gcDelta is the GC activity between two samples.
func gcDelta(a, b gcStats) gcStats {
	return gcStats{gcCPU: b.gcCPU - a.gcCPU, totalCPU: b.totalCPU - a.totalCPU, cycles: b.cycles - a.cycles}
}
