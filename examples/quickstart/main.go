// Quickstart: the paper's motivating example, end to end.
//
// This program runs the full pipeline on the Fig. 1 Express-style web
// server: approximate interpretation collects hints about the library's
// dynamic API initialization, and the static analysis consumes them via
// the [DPR]/[DPW] rules — recovering the app.get and app.listen call edges
// that the baseline misses.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/loc"
	"repro/internal/pipeline"
)

func main() {
	project := corpus.Motivating()

	res, err := pipeline.Run(project, pipeline.Config{WithDynCG: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Approximate interpretation (pre-analysis) ==")
	fmt.Printf("hints collected: %d   functions visited: %d/%d\n",
		res.Approx.Hints.Count(), res.Approx.FunctionsVisited, res.Approx.FunctionsTotal)
	fmt.Println("\nwrite hints for the web-application object (paper §3):")
	for _, w := range res.Approx.Hints.WriteHints() {
		if w.Prop == "get" || w.Prop == "listen" {
			fmt.Printf("  (%v, %q, %v)\n", w.Target, w.Prop, w.Value)
		}
	}

	fmt.Println("\n== Static analysis ==")
	fmt.Printf("baseline: %v\n", res.Baseline.Metrics())
	fmt.Printf("extended: %v\n", res.Extended.Metrics())

	// The two calls the paper's Fig. 1 centers on.
	siteGet := loc.Loc{File: "/app/server.js", Line: 3, Col: 8}
	siteListen := loc.Loc{File: "/app/server.js", Line: 7, Col: 24}
	fnMethodTable := loc.Loc{File: "/node_modules/express/application.js", Line: 6, Col: 17}
	fnListen := loc.Loc{File: "/node_modules/express/application.js", Line: 12, Col: 14}

	report := func(name string, site loc.Loc, target loc.Loc) {
		fmt.Printf("\n%s:\n", name)
		fmt.Printf("  baseline resolves it: %v\n", res.Baseline.Graph.HasEdge(site, target))
		fmt.Printf("  extended resolves it: %v  → %v\n",
			res.Extended.Graph.HasEdge(site, target), target)
	}
	report("app.get('/', …) at server.js:3", siteGet, fnMethodTable)
	report("app.listen(8080) at server.js:7", siteListen, fnListen)

	fmt.Println("\n== Accuracy vs dynamic call graph (test suite) ==")
	fmt.Printf("baseline: recall %.1f%%  precision %.1f%%\n",
		res.BaselineAccuracy.Recall, res.BaselineAccuracy.Precision)
	fmt.Printf("extended: recall %.1f%%  precision %.1f%%\n",
		res.ExtendedAccuracy.Recall, res.ExtendedAccuracy.Precision)
}
