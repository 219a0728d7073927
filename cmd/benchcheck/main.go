// Command benchcheck compares candidate BENCH files (written by
// cmd/evaluate -benchjson) against committed references and fails when the
// solver regresses. Every BENCH file is a perf.Bench: GOMAXPROCS plus
// labelled perf.Snapshot rows. Each reference row must be present in the
// candidate under the same label, and the row's label selects its gates.
// Wall times are machine-dependent and gate only the derived ratios below;
// the counter gates run on the deterministic counters:
//
//   - effort counters (tokens_delivered, solve_iterations, sweep_visited,
//     and the baseline-phase tokens_delivered_baseline and
//     solve_iterations_baseline) are one-sided: the candidate may not
//     exceed the reference by more than tolerance. The baseline-phase
//     pair is gated on its own so that a re-baselined total cannot hide a
//     core-solver regression;
//
//   - structure counters (cycles_collapsed, vars_unified,
//     redundant_deliveries_skipped, ...) are two-sided: a structure counter
//     drifting in either direction beyond tolerance means the solver's
//     cycle-collapsing behavior changed, which is a regression of the
//     benchmark's meaning even when the effort went down;
//
//   - a gated counter that the reference has and the candidate reads as
//     zero fails either way: it was dropped or renamed, not improved.
//     Unknown JSON fields are rejected for the same reason;
//
//   - the corpus row ("corpus", BENCH_cycles.json) carries all ten counter
//     gates;
//
//   - mega rows ("workers=N", BENCH_parallel.json, written by
//     cmd/evaluate -mega -benchjson) carry the effort gates plus
//     cycles_collapsed and redundant_deliveries_skipped; the candidate's
//     rows must agree with each other exactly on
//     perf.Snapshot.Deterministic (the epoch engine is deterministic by
//     construction); and four ratios gate the scaling claim — speedup at
//     4 workers, parallel share, serial share and barrier scale — all
//     four only on hosts with GOMAXPROCS >= 4, where wall-clock speedups
//     and sweep overlap are measurable at all (with one core the
//     concurrent cycle sweep serializes into the tail's join wait and
//     inflates the serial share). The serial share caps the fraction of
//     the workers=1 solve wall spent outside the parallel scan+winnow and
//     apply phases; the barrier scale caps the workers=4 apply+tail wall
//     as a fraction of the workers=1 one, i.e. it fails when the
//     pipelined barrier stops scaling down with workers;
//
//   - delta rows ("cold", "warm", "edit-warm", "edit-scratch",
//     BENCH_delta.json, written by cmd/evaluate -delta -benchjson) gate
//     the persistent cache: the in-harness byte-identical-reports
//     assertion must have held, the warm run must be fully cached (zero
//     misses/parses/solver effort), the cold row's effort counters may
//     not regress, and the cold/warm and cold/edit-warm wall ratios have
//     floors.
//
// The thresholds are the constants below.
//
// Usage:
//
//	benchcheck -pair BENCH_cycles.json=/tmp/bench.json
//	benchcheck -pair BENCH_parallel.json=/tmp/mega.json -pair BENCH_delta.json=/tmp/delta.json
//
// Exit status: 0 all gates hold, 1 on regression, 2 on usage/IO errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/perf"
)

// Gate thresholds.
const (
	// tolerance is the allowed fractional counter drift against the
	// reference.
	tolerance = 0.10
	// Mega, enforced only when the candidate was measured with
	// GOMAXPROCS >= 4: the minimum workers=1 / workers=4 solve-wall
	// speedup, the minimum parallel and maximum serial share of the
	// workers=1 solve wall, and the maximum workers=4 / workers=1
	// apply+tail wall.
	minSpeedup       = 2.0
	minParallelShare = 0.6
	maxSerialShare   = 0.4
	maxBarrierScale  = 0.6
	// Delta: the minimum cold/warm and cold/edit-warm wall speedups.
	minWarmSpeedup = 5.0
	minEditSpeedup = 5.0
)

// counterGate is one gated counter of a row.
type counterGate struct {
	name     string
	get      func(perf.Snapshot) int64
	oneSided bool
}

var (
	tokens     = counterGate{"tokens_delivered", func(s perf.Snapshot) int64 { return s.TokensDelivered }, true}
	iterations = counterGate{"solve_iterations", func(s perf.Snapshot) int64 { return s.SolveIterations }, true}
	swept      = counterGate{"sweep_visited", func(s perf.Snapshot) int64 { return s.SweepVisited }, true}
	cycles     = counterGate{"cycles_collapsed", func(s perf.Snapshot) int64 { return s.CyclesCollapsed }, false}
	redundant  = counterGate{"redundant_deliveries_skipped", func(s perf.Snapshot) int64 { return s.RedundantSkipped }, false}

	corpusGates = []counterGate{
		// Effort: one-sided — doing less work than the reference is fine.
		tokens, iterations, swept,
		{"tokens_delivered_baseline", func(s perf.Snapshot) int64 { return s.TokensDeliveredBase }, true},
		{"solve_iterations_baseline", func(s perf.Snapshot) int64 { return s.SolveIterationsBase }, true},
		// Structure: two-sided — the collapse machinery changing its
		// behavior in either direction is a semantic drift of the benchmark.
		cycles,
		{"vars_unified", func(s perf.Snapshot) int64 { return s.VarsUnified }, false},
		{"copies_substituted", func(s perf.Snapshot) int64 { return s.CopiesSubstituted }, false},
		{"edges_deduped", func(s perf.Snapshot) int64 { return s.EdgesDeduped }, false},
		redundant,
	}
	megaGates = []counterGate{tokens, iterations, swept, cycles, redundant}
	coldGates = []counterGate{tokens, iterations}
)

// rowGates returns the counter gates of a row by its label.
func rowGates(label string) []counterGate {
	switch {
	case label == "corpus":
		return corpusGates
	case label == "cold":
		return coldGates
	case strings.HasPrefix(label, "workers="):
		return megaGates
	}
	return nil
}

// checker runs gates, printing one line per gate to w.
type checker struct {
	w      io.Writer
	failed bool
}

func (c *checker) status(ok bool) string {
	if ok {
		return "ok"
	}
	c.failed = true
	return "REGRESSION"
}

// gate reports one counter comparison. oneSided only fails on increase;
// two-sided fails on drift in either direction. A counter the reference
// has and the candidate lacks fails both ways.
func (c *checker) gate(name string, refV, gotV int64, oneSided bool) {
	if refV <= 0 && gotV <= 0 {
		return // neither side has this counter
	}
	lo := float64(refV) * (1 - tolerance)
	hi := float64(refV) * (1 + tolerance)
	ok := float64(gotV) <= hi && (oneSided || float64(gotV) >= lo) && (refV <= 0 || gotV > 0)
	bound := fmt.Sprintf("limit %9.0f", hi)
	if !oneSided {
		bound = fmt.Sprintf("band %9.0f..%-9.0f", lo, hi)
	}
	fmt.Fprintf(c.w, "  %-40s ref %12d  got %12d  (%s)  %s\n", name, refV, gotV, bound, c.status(ok))
}

// check runs every gate of one ref/got pair.
func (c *checker) check(ref, got perf.Bench) {
	for _, rr := range ref.Rows {
		gr := got.Row(rr.Label)
		if gr == nil {
			fmt.Fprintf(c.w, "  [%s]: MISSING from candidate\n", rr.Label)
			c.failed = true
			continue
		}
		for _, g := range rowGates(rr.Label) {
			c.gate("["+rr.Label+"] "+g.name, g.get(rr), g.get(*gr), g.oneSided)
		}
	}
	switch {
	case ref.Row("cold") != nil:
		c.checkDelta(got)
	case len(ref.Rows) > 0 && strings.HasPrefix(ref.Rows[0].Label, "workers="):
		c.checkMega(got)
	}
}

// checkMega runs the mega Bench's whole-file gates: row agreement and the
// multicore scaling ratios.
func (c *checker) checkMega(got perf.Bench) {
	// Determinism within the candidate: every row must agree exactly. No
	// tolerance — divergence means the barrier leaked scheduling into the
	// results.
	for i := 1; i < len(got.Rows); i++ {
		if r, first := got.Rows[i], got.Rows[0]; r.Deterministic() != first.Deterministic() {
			fmt.Fprintf(c.w, "  %s: counters differ from %s — epoch engine is NOT deterministic\n", r.Label, first.Label)
			c.failed = true
		}
	}

	// All four ratios are overlap-dependent: with GOMAXPROCS < 4 the
	// workers cannot run concurrently, and with one core the concurrent
	// cycle sweep cannot overlap the scan either, so its compute serializes
	// into the tail's join wait and inflates the measured serial share by
	// exactly the amount a multicore host overlaps away.
	r := got.Ratios()
	ratio := func(name string, gotV, want float64, atLeast bool, missing string) {
		switch {
		case got.MaxProcs < 4:
			fmt.Fprintf(c.w, "  %-30s skipped: measured with GOMAXPROCS=%d < 4\n", name, got.MaxProcs)
		case missing != "" && gotV == 0:
			fmt.Fprintf(c.w, "  %-30s skipped: %s\n", name, missing)
		default:
			rel, ok := "<=", gotV <= want
			if atLeast {
				rel, ok = ">=", gotV >= want
			}
			fmt.Fprintf(c.w, "  %-30s %.3f (want %s %.3f)  %s\n", name, gotV, rel, want, c.status(ok))
		}
	}
	ratio("speedup at 4 workers", r.SpeedupAt4, minSpeedup, true, "")
	ratio("parallel share", r.ParallelShare, minParallelShare, true, "")
	ratio("serial share", r.SerialShare, maxSerialShare, false, "no workers=1 row with wall time")
	ratio("barrier scale at 4 workers", r.BarrierScale, maxBarrierScale, false, "missing workers=1/4 apply+tail timings")
}

// checkDelta runs the delta Bench's whole-file gates. Wall speedups are
// gated (they are the benchmark's whole claim — and with
// two-orders-of-magnitude headroom, host noise cannot flip a sane floor);
// the rest run on deterministic facts: the harness's byte-identical-reports
// assertion must have held, and the warm run must have been served
// entirely from cache (zero misses, zero parses, zero solver effort).
func (c *checker) checkDelta(got perf.Bench) {
	fmt.Fprintf(c.w, "  %-30s %s  %s\n", "reports_identical",
		"byte-identical reports asserted in-harness", c.status(got.ReportsIdentical))
	if warm := got.Row("warm"); warm == nil {
		fmt.Fprintln(c.w, "  warm run: MISSING from candidate")
		c.failed = true
	} else {
		fmt.Fprintf(c.w, "  %-30s %s  %s\n", "warm run fully cached", "zero misses / parses / solver effort",
			c.status(warm.CacheMisses == 0 && warm.Parses == 0 && warm.TokensDelivered == 0))
	}
	r := got.Ratios()
	for _, s := range []struct {
		name      string
		got, want float64
	}{{"warm speedup", r.WarmSpeedup, minWarmSpeedup}, {"edit speedup", r.EditSpeedup, minEditSpeedup}} {
		fmt.Fprintf(c.w, "  %-30s %.1fx (want >= %.1fx)  %s\n", s.name, s.got, s.want, c.status(s.got >= s.want))
	}
}

// load reads one BENCH file, rejecting unknown fields: a renamed key would
// otherwise read as a zero counter.
func load(path string) (perf.Bench, error) {
	var b perf.Bench
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// pairList collects repeatable -pair ref=got arguments.
type pairList []string

func (p *pairList) String() string     { return strings.Join(*p, ",") }
func (p *pairList) Set(v string) error { *p = append(*p, v); return nil }

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchcheck:"}, args...)...)
	os.Exit(2)
}

func main() {
	var pairs pairList
	flag.Var(&pairs, "pair", "ref=got BENCH file pair to compare (repeatable)")
	flag.Parse()
	if len(pairs) == 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &checker{w: os.Stdout}
	for _, p := range pairs {
		refPath, gotPath, ok := strings.Cut(p, "=")
		if !ok || refPath == "" || gotPath == "" {
			fatal("malformed -pair (want ref=got):", p)
		}
		ref, err := load(refPath)
		if err != nil {
			fatal("ref:", err)
		}
		got, err := load(gotPath)
		if err != nil {
			fatal("got:", err)
		}
		fmt.Printf("%s vs %s:\n", refPath, gotPath)
		c.check(ref, got)
	}
	if c.failed {
		fmt.Println("benchcheck: solver regressed beyond tolerance")
		os.Exit(1)
	}
}
