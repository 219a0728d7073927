package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// A repetition is one corpus pass or one mega op. Each runs in a process of
// its own: the analyzer keeps process-global state that grows with every
// project it evaluates (see NOTES.md), so repetitions sharing a process
// would see their peak memory and GC load drift upwards.

// repResult is what one repetition measured; the child process prints it
// as JSON and the parent merges them.
type repResult struct {
	Setup     []float64 `json:"setup_s"` // each set-up repetition
	Lat       []float64 `json:"lat_ms"`  // per successful op
	Wall      float64   `json:"wall_s"`  // measured wall time
	CPU       float64   `json:"cpu_s"`   // user+system CPU of the measured region
	PeakRSS   float64   `json:"peak_rss_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
}

// repetitions run one repetition of a workload in-process.
var repetitions = map[string]func(cfg config, index int) (*repResult, error){
	"corpus": corpusPass,
	"mega":   megaOp,
}

// runChild implements the hidden `perfbench child` command the parent
// starts once per repetition.
func runChild(args []string) int {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	name := fs.String("workload", "", "corpus or mega")
	seed := fs.Int64("seed", 1, "workload seed")
	index := fs.Int("index", 0, "repetition number")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	rep, ok := repetitions[*name]
	root, err := os.Getwd()
	if !ok || err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad workload or working directory")
		return 2
	}
	r, err := rep(config{seed: *seed, root: root}, *index)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %s: %v\n", *name, err)
		return 1
	}
	r.PeakRSS = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// runRepeated starts repetitions one after another, each in its own child
// process, until their measured time reaches the budget, and merges them.
// peak_rss_mb becomes the median of the children's peaks.
func runRepeated(cfg config, name string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	var rss []float64
	var measured time.Duration
	for i := 0; i == 0 || measured < cfg.seconds; i++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, "child", "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10), "--index", strconv.Itoa(i))
		cmd.Dir, cmd.Stdout, cmd.Stderr = cfg.root, &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		var r repResult
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		wall := time.Duration(r.Wall * float64(time.Second))
		measured += wall
		if r.Attempted == 0 {
			return nil, fmt.Errorf("repetition %d attempted nothing", i)
		}
		res.setup = append(res.setup, r.Setup...)
		res.lat = append(res.lat, r.Lat...)
		res.wall += wall
		res.cpu += time.Duration(r.CPU * float64(time.Second))
		res.attempted += r.Attempted
		res.failed += r.Failed
		for _, f := range r.Failures {
			if len(res.failures) < 10 {
				res.failures = append(res.failures, f)
			}
		}
		rss = append(rss, r.PeakRSS)
	}
	res.peakRSS = median(rss)
	res.notes = append(res.notes, fmt.Sprintf("%d repetitions, each in its own process", len(rss)))
	return res, nil
}
