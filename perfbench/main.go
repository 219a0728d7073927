// Command perfbench is the repository's benchmark. It drives the analyzer as
// a library over three workloads (corpus, mega, edit; see design.json),
// checks every result against committed references and independent
// oracles, and prints one JSON result line.
//
//	perfbench --workload corpus --seed 1 --seconds 20 --trace 0
//	perfbench reference --workload edit        # rewrite reference/edit.json
//	perfbench compare BENCHMARK.json base.jsonl change.jsonl
//
// Run it through run.sh from the repository root, which builds it first.
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// The line before it is a report with the host fingerprint, sample counts
// and notes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository root (the working directory)
}

func (c config) refPath(workload string) string {
	return filepath.Join(c.root, "perfbench", "reference", workload+".json")
}

// setupReps is how many times set-up is repeated: per repetition process
// for corpus and mega, per run for edit. setup_s is the median, so one slow
// repetition does not move it.
const setupReps = 3

// runResult is what a workload measured.
type runResult struct {
	setup     []float64     // seconds, each set-up repetition
	lat       []float64     // ms per completed op
	wall      time.Duration // measured wall time, the ops_per_s base
	cpu       time.Duration // user+system CPU of the measured ops
	peakRSS   float64       // MB; 0 means this process's own peak
	attempted int
	failed    int
	failures  []string          // first few failure messages
	layers    map[string]metric // per-layer metrics (traced run only)
	spans     *tracer           // the traced run's spans
	notes     []string
}

// fail records one failed op.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(config) (*runResult, error){
	"corpus": runCorpus,
	"mega":   runMega,
	"edit":   runEdit,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout))
		case "reference":
			os.Exit(runReference(os.Args[2:]))
		case "child":
			os.Exit(runChild(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: corpus, mega or edit")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload corpus|mega|edit, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: root}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if res.spans != nil {
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := res.spans.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		res.notes = append(res.notes, "spans written to "+filepath.Join(".bench_build", "spans", filepath.Base(path)))
	}
	report, line := summarize(*name, cfg, res)
	w := bufio.NewWriter(os.Stdout)
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

// resultLine is the benchmark's output contract: the last stdout line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reportLine precedes the result line: everything needed to interpret and
// compare it.
type reportLine struct {
	Report struct {
		Workload    string            `json:"workload"`
		Seed        int64             `json:"seed"`
		Seconds     float64           `json:"seconds"`
		Trace       bool              `json:"trace"`
		Host        host              `json:"host"`
		Samples     int               `json:"samples"`
		Undefined   []string          `json:"undefined,omitempty"`
		FailedRatio float64           `json:"failed_ratio"`
		Failures    []string          `json:"failures,omitempty"`
		Notes       []string          `json:"notes,omitempty"`
		Metrics     map[string]metric `json:"metrics"`
	} `json:"report"`
}

// endToEnd computes the untraced metrics of a run.
func endToEnd(res *runResult) (map[string]metric, []string) {
	var undefined []string
	p50 := median(res.lat)
	p90, ok := tailPercentile(res.lat, 0.9)
	if !ok {
		// Too few samples beyond p90 for a tail figure: the key carries
		// the median so every workload reports the same keys.
		undefined = append(undefined, fmt.Sprintf("op_p90_ms: %d samples, needs %d; reported value is the median", len(res.lat), 100))
		p90 = p50
	}
	rss := res.peakRSS
	if rss == 0 {
		rss = peakRSSMB()
	}
	m := map[string]metric{
		"ops_per_s":   {float64(len(res.lat)) / res.wall.Seconds(), "1/s"},
		"op_p50_ms":   {p50, "ms"},
		"op_p90_ms":   {p90, "ms"},
		"cpu_s":       {res.cpu.Seconds() / float64(max(len(res.lat), 1)), "s"},
		"peak_rss_mb": {rss, "MB"},
		"setup_s":     {median(res.setup), "s"},
		"ok_ratio":    {1 - float64(res.failed)/float64(res.attempted), "ratio"},
	}
	return m, undefined
}

func summarize(name string, cfg config, res *runResult) (reportLine, resultLine) {
	var rep reportLine
	r := &rep.Report
	r.Workload, r.Seed, r.Seconds, r.Trace = name, cfg.seed, cfg.seconds.Seconds(), cfg.trace
	r.Host = fingerprint(cfg.root)
	r.Samples = len(res.lat)
	r.FailedRatio = float64(res.failed) / float64(max(res.attempted, 1))
	r.Failures, r.Notes = res.failures, res.notes
	e2e, undefined := endToEnd(res)
	r.Undefined = undefined
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	if cfg.trace {
		line.Metrics = res.layers
		r.Metrics = e2e
	} else {
		line.Metrics = e2e
	}
	return rep, line
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// sortedKeys returns m's keys in order (for deterministic iteration).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
