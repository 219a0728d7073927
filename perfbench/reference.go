package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/approx"
	"repro/internal/corpus"
)

// loadRef reads a committed reference file.
func loadRef[T any](path string) (T, error) {
	var v T
	b, err := os.ReadFile(path)
	if err != nil {
		return v, fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("reference %s: %w", path, err)
	}
	return v, nil
}

// mustJSON renders v canonically (map keys sorted) for comparison.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data types are marshaled
	}
	return string(b)
}

// runReference recomputes one workload's reference file from scratch:
//
//	perfbench reference --workload corpus|mega|edit
//
// Regenerate a reference only when a change is meant to alter analysis
// results, and review the diff: the references are what every benchmark
// run checks its ops against.
func runReference(args []string) int {
	fs := flag.NewFlagSet("reference", flag.ExitOnError)
	name := fs.String("workload", "", "corpus, mega or edit")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{root: root}
	var ref any
	switch *name {
	case "corpus":
		ref, err = corpusReference()
	case "mega":
		ref, err = megaReference()
	case "edit":
		ref, err = editReference()
	default:
		fmt.Fprintln(os.Stderr, "perfbench reference: need --workload corpus|mega|edit")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench reference: %s: %v\n", *name, err)
		return 1
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	if err := os.WriteFile(cfg.refPath(*name), append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	return 0
}

// corpusReference evaluates every project once, sequentially, with one
// shared §6 hint cache, as `evaluate -all` does.
func corpusReference() (map[string]corpusRecord, error) {
	bs := corpus.All()
	ext := extensionProjects(bs)
	hc := &hintCache{cache: approx.NewCache()}
	ref := map[string]corpusRecord{}
	for _, b := range bs {
		var c *hintCache
		if ext[b.Project.Name] {
			c = hc
		}
		rec, err := evaluateProject(coldBenchmark(b), c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Project.Name, err)
		}
		ref[b.Project.Name] = rec.rounded()
	}
	return ref, nil
}

func megaReference() (megaRecord, error) {
	b := corpus.Mega(corpus.DefaultMegaModules)
	base, ext, ar, err := analyzeMega(nil, b.Project, runtime.NumCPU(), false)
	if err != nil {
		return megaRecord{}, err
	}
	return megaRecordOf(base, ext, ar), nil
}
