// Command jsanalyze runs the static call-graph and points-to analysis on a
// project, with or without hints from approximate interpretation (the
// paper's phase 2), and reports the §5 metrics and the call graph.
//
// Usage:
//
//	jsanalyze -corpus motivating-express                 # baseline vs hints
//	jsanalyze -dir ./proj -hints hints.json -edges       # with precomputed hints
//	jsanalyze -corpus mini-router -baseline-only -edges  # baseline call graph
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/hints"
	"repro/internal/modules"
	"repro/internal/pipeline"
	"repro/internal/static"
)

func main() {
	var (
		dir          = flag.String("dir", "", "project directory to analyze")
		corpusName   = flag.String("corpus", "", "built-in benchmark to analyze")
		hintsFile    = flag.String("hints", "", "hints JSON produced by approxinterp (default: run the pre-analysis inline)")
		baselineOnly = flag.Bool("baseline-only", false, "report only the baseline analysis")
		edges        = flag.Bool("edges", false, "print call edges")
		withDyn      = flag.Bool("dyncg", false, "also build a dynamic call graph and report recall/precision")
		disableDPR   = flag.Bool("no-dpr", false, "disable the read-hint rule [DPR]")
		unknownArgs  = flag.Bool("unknown-args", false, "enable the §6 unknown-function-arguments extension")
	)
	flag.Parse()

	var project *modules.Project
	switch {
	case *dir != "":
		p, err := modules.LoadDir(*dir)
		if err != nil {
			fatal(err)
		}
		project = p
	case *corpusName != "":
		b := corpus.ByName(*corpusName)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *corpusName))
		}
		project = b.Project
	default:
		flag.Usage()
		os.Exit(2)
	}

	// With -hints the pre-analysis is the file's (it carries no faults, so
	// nothing degrades); otherwise the pipeline runs it inline.
	cfg := pipeline.Config{
		DisableDPR: *disableDPR, UnknownArgHints: *unknownArgs, WithDynCG: *withDyn,
	}
	if *hintsFile != "" {
		f, err := os.Open(*hintsFile)
		if err != nil {
			fatal(err)
		}
		h, err := hints.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cfg.PreAnalysis = &approx.Result{Hints: h}
	}
	res, err := pipeline.Run(project, cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.PreAnalysis == nil {
		ar := res.Approx
		fmt.Printf("approx:    %d hints, %d/%d functions visited, %s\n",
			ar.Hints.Count(), ar.FunctionsVisited, ar.FunctionsTotal, ar.Duration)
	}
	for _, f := range res.Faults {
		fmt.Fprintf(os.Stderr, "jsanalyze: contained fault: %s\n", f)
	}
	base := res.Baseline
	fmt.Printf("baseline:  %v  (vars=%d tokens=%d modules=%d, %s)\n",
		base.Metrics(), base.NumVars, base.NumTokens, base.AnalyzedModules, base.Duration)
	var ext *static.Result
	if !*baselineOnly {
		ext = res.Extended
		fmt.Printf("extended:  %v  (%s)\n", ext.Metrics(), ext.Duration)
	}

	if dr := res.Dynamic; dr != nil {
		fmt.Printf("dynamic:   %d edges from %d test entries\n", dr.Graph.NumEdges(), dr.EntriesRun)
		acc := res.BaselineAccuracy
		fmt.Printf("baseline:  recall %.1f%%  precision %.1f%%\n", acc.Recall, acc.Precision)
		if ext != nil {
			acc = res.ExtendedAccuracy
			fmt.Printf("extended:  recall %.1f%%  precision %.1f%%\n", acc.Recall, acc.Precision)
		}
	}

	if *edges {
		g := base.Graph
		tag := "baseline"
		if ext != nil {
			g = ext.Graph
			tag = "extended"
		}
		fmt.Printf("call graph (%s):\n", tag)
		for _, site := range g.SortedSites() {
			targets := g.Targets(site)
			if len(targets) == 0 {
				continue
			}
			for _, t := range targets {
				fmt.Printf("  %v -> %v\n", site, t)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsanalyze:", err)
	os.Exit(1)
}
