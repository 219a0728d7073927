// Command benchcheck compares candidate BENCH json files (written by
// cmd/evaluate -benchjson) against committed references and fails when the
// solver regresses. Wall times are machine-dependent and are never gated;
// the gates run on the deterministic counters:
//
//   - effort counters (tokens_delivered, solve_iterations, sweep_visited)
//     are one-sided: the candidate may not exceed the reference by more
//     than -tolerance;
//
//   - structure counters (cycles_collapsed, vars_unified,
//     redundant_deliveries_skipped, ...) are two-sided: a structure counter
//     drifting in either direction beyond -tolerance means the solver's
//     cycle-collapsing behavior changed, which is a regression of the
//     benchmark's meaning even when the effort went down;
//
//   - parallel snapshots (BENCH_parallel.json, written by cmd/evaluate
//     -mega -benchjson) are compared row-by-row per worker count, the
//     workers >= 1 rows of the candidate must agree with each other
//     exactly (the epoch engine is deterministic by construction), the
//     workers=1 row may not cost more than -seq-tax over the candidate's
//     own workers=0 row (the epoch engine's sequential-path tax), and
//     -min-speedup / -min-parallel-share / -max-serial-share /
//     -max-barrier-scale gate the scaling claim — all four only on hosts
//     with GOMAXPROCS >= 4, where wall-clock speedups and sweep overlap
//     are measurable at all (with one core the concurrent cycle sweep
//     serializes into the tail's join wait and inflates the serial
//     share). -max-serial-share caps the fraction of the workers=1 solve
//     wall spent outside the parallel scan+winnow and apply phases;
//     -max-barrier-scale caps the workers=4 apply+tail wall as a
//     fraction of the workers=1 one, i.e. it fails when the pipelined
//     barrier stops scaling down with workers.
//
//   - delta snapshots (BENCH_delta.json, written by cmd/evaluate -delta
//     -benchjson) gate the persistent cache: the in-harness byte-identical-
//     reports assertion must have held, the warm run must be fully cached
//     (zero misses/parses/solver effort), the cold arm's effort counters
//     may not regress, and -min-warm-speedup / -min-edit-speedup put
//     floors under the cold/warm and cold/edit-warm wall ratios.
//
// Usage:
//
//	benchcheck -ref BENCH_cycles.json -got /tmp/bench.json
//	benchcheck -pair BENCH_cycles.json=/tmp/a.json -pair BENCH_parallel.json=/tmp/b.json
//	benchcheck -pair BENCH_parallel.json=/tmp/mega.json -min-speedup 2.0 -min-parallel-share 0.35
//	benchcheck -pair BENCH_delta.json=/tmp/delta.json -min-edit-speedup 5.0
//
// Snapshot flavors (plain perf.Snapshot vs perf.ParallelSnapshot vs
// perf.DeltaSnapshot) are auto-detected from the JSON. Exit status: 0 all
// gates hold, 1 on regression, 2 on usage/IO errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/perf"
)

// pairList collects repeatable -pair ref=got arguments.
type pairList []string

func (p *pairList) String() string     { return strings.Join(*p, ",") }
func (p *pairList) Set(v string) error { *p = append(*p, v); return nil }

var (
	tolerance  = flag.Float64("tolerance", 0.10, "allowed fractional counter drift against the reference")
	seqTax     = flag.Float64("seq-tax", 0.10, "allowed fractional effort overhead of the epoch engine's workers=1 row over its workers=0 row")
	minSpeed   = flag.Float64("min-speedup", 0, "minimum workers=1 / workers=4 solve-wall speedup (enforced only when the candidate was measured with GOMAXPROCS >= 4)")
	minShare   = flag.Float64("min-parallel-share", 0, "minimum fraction of workers=1 solve wall spent in the parallel scan+winnow and apply phases")
	maxSerial  = flag.Float64("max-serial-share", 0, "maximum fraction of workers=1 solve wall spent outside the parallel scan+winnow and apply phases")
	maxBarrier = flag.Float64("max-barrier-scale", 0, "maximum workers=4 apply+tail wall as a fraction of the workers=1 apply+tail wall (enforced only when the candidate was measured with GOMAXPROCS >= 4)")
	minWarm    = flag.Float64("min-warm-speedup", 0, "delta snapshots: minimum cold/warm wall speedup of an unchanged warm corpus run")
	minEdit    = flag.Float64("min-edit-speedup", 0, "delta snapshots: minimum cold/edit-warm wall speedup of a warm one-file-edit run")
	failed     = false
)

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchcheck:"}, args...)...)
	os.Exit(2)
}

// gate reports one counter comparison. oneSided only fails on increase;
// two-sided fails on drift in either direction.
func gate(name string, refV, gotV int64, oneSided bool) {
	if refV <= 0 && gotV <= 0 {
		return // neither side has this counter
	}
	lo := float64(refV) * (1 - *tolerance)
	hi := float64(refV) * (1 + *tolerance)
	status := "ok"
	if float64(gotV) > hi || (!oneSided && float64(gotV) < lo) {
		status = "REGRESSION"
		failed = true
	}
	bound := fmt.Sprintf("limit %9.0f", hi)
	if !oneSided {
		bound = fmt.Sprintf("band %9.0f..%-9.0f", lo, hi)
	}
	fmt.Printf("  %-30s ref %12d  got %12d  (%s)  %s\n", name, refV, gotV, bound, status)
}

func checkPlain(ref, got perf.Snapshot) {
	// Effort: one-sided — doing less work than the reference is fine.
	gate("tokens_delivered", ref.TokensDelivered, got.TokensDelivered, true)
	gate("solve_iterations", ref.SolveIterations, got.SolveIterations, true)
	gate("sweep_visited", ref.SweepVisited, got.SweepVisited, true)
	// Structure: two-sided — the collapse machinery changing its behavior
	// in either direction is a semantic drift of the benchmark.
	gate("cycles_collapsed", ref.CyclesCollapsed, got.CyclesCollapsed, false)
	gate("vars_unified", ref.VarsUnified, got.VarsUnified, false)
	gate("copies_substituted", ref.CopiesSubstituted, got.CopiesSubstituted, false)
	gate("edges_deduped", ref.EdgesDeduped, got.EdgesDeduped, false)
	gate("redundant_deliveries_skipped", ref.RedundantSkipped, got.RedundantSkipped, false)
}

func checkParallel(ref, got perf.ParallelSnapshot) {
	// Per-worker-count rows against the committed reference.
	for _, rr := range ref.Rows {
		gr := got.Row(rr.SolverWorkers)
		if gr == nil {
			fmt.Printf("  workers=%d: MISSING from candidate\n", rr.SolverWorkers)
			failed = true
			continue
		}
		w := fmt.Sprintf("[workers=%d] ", rr.SolverWorkers)
		gate(w+"tokens_delivered", rr.TokensDelivered, gr.TokensDelivered, true)
		gate(w+"solve_iterations", rr.SolveIterations, gr.SolveIterations, true)
		gate(w+"sweep_visited", rr.SweepVisited, gr.SweepVisited, true)
		gate(w+"cycles_collapsed", rr.CyclesCollapsed, gr.CyclesCollapsed, false)
		gate(w+"redundant_deliveries_skipped", rr.RedundantSkipped, gr.RedundantSkipped, false)
	}

	// Determinism within the candidate: every epoch-engine row must agree
	// exactly. No tolerance — divergence means the barrier leaked
	// scheduling into the results.
	var first *perf.ParallelRow
	for i := range got.Rows {
		r := &got.Rows[i]
		if r.SolverWorkers < 1 {
			continue
		}
		if first == nil {
			first = r
			continue
		}
		if r.SolveIterations != first.SolveIterations || r.TokensDelivered != first.TokensDelivered ||
			r.CyclesCollapsed != first.CyclesCollapsed || r.RedundantSkipped != first.RedundantSkipped ||
			r.SweepVisited != first.SweepVisited ||
			r.Epochs != first.Epochs || r.CrossShard != first.CrossShard ||
			r.AsyncSweeps != first.AsyncSweeps {
			fmt.Printf("  workers=%d: counters differ from workers=%d — epoch engine is NOT deterministic\n",
				r.SolverWorkers, first.SolverWorkers)
			failed = true
		}
	}

	// Sequential-path tax: the epoch engine at workers=1 may not do more
	// than -seq-tax extra solver effort over the sequential engine.
	if seq, par := got.Row(0), got.Row(1); seq != nil && par != nil {
		lim := float64(seq.TokensDelivered) * (1 + *seqTax)
		status := "ok"
		if float64(par.TokensDelivered) > lim {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-30s seq %12d  par %12d  (limit %9.0f)  %s\n",
			"workers=1 effort tax", seq.TokensDelivered, par.TokensDelivered, lim, status)
	}

	if *minSpeed > 0 {
		if got.MaxProcs >= 4 {
			status := "ok"
			if got.SpeedupAt4 < *minSpeed {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-30s %.2fx (want >= %.2fx)  %s\n", "speedup at 4 workers", got.SpeedupAt4, *minSpeed, status)
		} else {
			fmt.Printf("  %-30s skipped: measured with GOMAXPROCS=%d < 4\n", "speedup at 4 workers", got.MaxProcs)
		}
	}
	// The share gates are overlap-dependent like -min-speedup: with
	// GOMAXPROCS=1 the concurrent cycle sweep cannot overlap the scan, its
	// compute serializes into the tail's join wait, and the measured serial
	// share is inflated by exactly the amount a multicore host overlaps away.
	if *minShare > 0 {
		if got.MaxProcs < 4 {
			fmt.Printf("  %-30s skipped: measured with GOMAXPROCS=%d < 4\n", "parallel share", got.MaxProcs)
		} else {
			status := "ok"
			if got.ParallelShare < *minShare {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-30s %.1f%% (want >= %.1f%%)  %s\n", "parallel share", 100*got.ParallelShare, 100**minShare, status)
		}
	}
	if *maxSerial > 0 {
		r1 := got.Row(1)
		switch {
		case got.MaxProcs < 4:
			fmt.Printf("  %-30s skipped: measured with GOMAXPROCS=%d < 4\n", "serial share", got.MaxProcs)
		case r1 == nil || r1.SolveWallMS <= 0:
			fmt.Printf("  %-30s skipped: no workers=1 row with wall time\n", "serial share")
		default:
			share := (r1.SolveWallMS - r1.ScanMS - r1.ApplyMS) / r1.SolveWallMS
			status := "ok"
			if share > *maxSerial {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-30s %.1f%% (want <= %.1f%%)  %s\n", "serial share", 100*share, 100**maxSerial, status)
		}
	}
	if *maxBarrier > 0 {
		r1, r4 := got.Row(1), got.Row(4)
		switch {
		case got.MaxProcs < 4:
			fmt.Printf("  %-30s skipped: measured with GOMAXPROCS=%d < 4\n", "barrier scale at 4 workers", got.MaxProcs)
		case r1 == nil || r4 == nil || r1.ApplyMS+r1.SerialTailMS <= 0:
			fmt.Printf("  %-30s skipped: missing workers=1/4 apply+tail timings\n", "barrier scale at 4 workers")
		default:
			scale := (r4.ApplyMS + r4.SerialTailMS) / (r1.ApplyMS + r1.SerialTailMS)
			status := "ok"
			if scale > *maxBarrier {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-30s %.2fx (want <= %.2fx)  %s\n", "barrier scale at 4 workers", scale, *maxBarrier, status)
		}
	}
}

// checkDelta gates a persistent-cache delta snapshot (BENCH_delta.json).
// Wall speedups are gated (they are the snapshot's whole claim — and with
// two-orders-of-magnitude headroom, host noise cannot flip a sane floor);
// the rest of the gates run on deterministic facts: the harness's
// byte-identical-reports assertion must have held, the warm run must have
// been served entirely from cache (zero misses, zero parses, zero solver
// effort), and the cold arm's solver effort may not regress past the
// reference.
func checkDelta(ref, got perf.DeltaSnapshot) {
	boolGate := func(name string, ok bool, want string) {
		status := "ok"
		if !ok {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-30s %s  %s\n", name, want, status)
	}
	boolGate("reports_identical", got.ReportsIdentical, "byte-identical reports asserted in-harness")

	if warm := got.Run("warm"); warm == nil {
		fmt.Println("  warm run: MISSING from candidate")
		failed = true
	} else {
		boolGate("warm run fully cached", warm.CacheMisses == 0 && warm.Parses == 0 && warm.TokensDelivered == 0,
			"zero misses / parses / solver effort")
	}
	if refCold, gotCold := ref.Run("cold"), got.Run("cold"); refCold != nil && gotCold != nil {
		gate("[cold] tokens_delivered", refCold.TokensDelivered, gotCold.TokensDelivered, true)
		gate("[cold] solve_iterations", refCold.SolveIterations, gotCold.SolveIterations, true)
	}
	speedGate := func(name string, gotV, want float64) {
		if want <= 0 {
			return
		}
		status := "ok"
		if gotV < want {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-30s %.1fx (want >= %.1fx)  %s\n", name, gotV, want, status)
	}
	speedGate("warm speedup", got.WarmSpeedup, *minWarm)
	speedGate("edit speedup", got.EditSpeedup, *minEdit)
}

// checkPair loads both sides of one ref=got pair, auto-detects the
// snapshot flavor, and runs the matching gates.
func checkPair(refPath, gotPath string) {
	refData, err := os.ReadFile(refPath)
	if err != nil {
		fatal("ref:", err)
	}
	gotData, err := os.ReadFile(gotPath)
	if err != nil {
		fatal("got:", err)
	}
	fmt.Printf("%s vs %s:\n", refPath, gotPath)

	// Flavor detection: a DeltaSnapshot has a "runs" array, a
	// ParallelSnapshot a "rows" array, a plain Snapshot neither.
	var probe struct {
		Rows []json.RawMessage `json:"rows"`
		Runs []json.RawMessage `json:"runs"`
	}
	if json.Unmarshal(refData, &probe) == nil && probe.Runs != nil {
		var ref, got perf.DeltaSnapshot
		if err := json.Unmarshal(refData, &ref); err != nil {
			fatal("ref:", err)
		}
		if err := json.Unmarshal(gotData, &got); err != nil {
			fatal("got:", err)
		}
		checkDelta(ref, got)
		return
	}
	if probe.Rows != nil {
		var ref, got perf.ParallelSnapshot
		if err := json.Unmarshal(refData, &ref); err != nil {
			fatal("ref:", err)
		}
		if err := json.Unmarshal(gotData, &got); err != nil {
			fatal("got:", err)
		}
		checkParallel(ref, got)
		return
	}
	var ref, got perf.Snapshot
	if err := json.Unmarshal(refData, &ref); err != nil {
		fatal("ref:", err)
	}
	if err := json.Unmarshal(gotData, &got); err != nil {
		fatal("got:", err)
	}
	checkPlain(ref, got)
}

func main() {
	var pairs pairList
	refFlag := flag.String("ref", "", "committed reference BENCH json (legacy single-pair form)")
	gotFlag := flag.String("got", "", "candidate BENCH json from this build (legacy single-pair form)")
	flag.Var(&pairs, "pair", "ref=got json pair to compare (repeatable)")
	flag.Parse()

	if *refFlag != "" && *gotFlag != "" {
		pairs = append(pairs, *refFlag+"="+*gotFlag)
	}
	if len(pairs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, p := range pairs {
		ref, got, ok := strings.Cut(p, "=")
		if !ok || ref == "" || got == "" {
			fatal("malformed -pair (want ref=got):", p)
		}
		checkPair(ref, got)
	}
	if failed {
		fmt.Println("benchcheck: solver regressed beyond tolerance")
		os.Exit(1)
	}
}
