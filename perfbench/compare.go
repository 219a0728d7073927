package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is the runs of one side of a comparison, read from the benchmark's
// stdout of each run concatenated into one file.
type runSet struct {
	hosts  []host
	values map[string]map[string][]float64 // workload → metric → one value per run
}

func readRuns(r io.Reader) (*runSet, error) {
	rs := &runSet{values: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rep *reportLine
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		if strings.HasPrefix(line, `{"report"`) {
			rep = &reportLine{}
			if err := json.Unmarshal([]byte(line), rep); err != nil {
				return nil, fmt.Errorf("report line: %w", err)
			}
			continue
		}
		var res resultLine
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("result line: %w", err)
		}
		if rep == nil || rep.Report.Trace {
			rep = nil
			continue // per-layer runs have no bounds to compare
		}
		rs.hosts = append(rs.hosts, rep.Report.Host)
		w := rs.values[rep.Report.Workload]
		if w == nil {
			w = map[string][]float64{}
			rs.values[rep.Report.Workload] = w
		}
		for name, m := range res.Metrics {
			w[name] = append(w[name], m.Value)
		}
		rep = nil
	}
	return rs, sc.Err()
}

// compareRuns prints, per workload and end-to-end metric, each side's
// median and quartiles and a verdict against the metric's bound. It gives
// no verdict at all when the two sides ran on different hosts. It reports
// whether any metric regressed.
func compareRuns(w io.Writer, spec benchSpec, base, change *runSet) bool {
	for _, a := range base.hosts {
		for _, b := range change.hosts {
			if diff := a.mismatch(b); len(diff) > 0 {
				fmt.Fprintf(w, "no verdict: the runs come from different hosts (%s differ: %+v vs %+v)\n",
					strings.Join(diff, ", "), a, b)
				return false
			}
		}
	}
	regressed := false
	for _, wl := range sortedKeys(base.values) {
		for _, m := range spec.EndToEnd {
			av, bv := base.values[wl][m.Name], change.values[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict, regressed = "REGRESSED", true
			case (a3-a1)/a2 > m.Bound && !separated(av, bv, m.Better == "higher"):
				verdict = "unresolved (base spread exceeds bound)"
			}
			fmt.Fprintf(w, "%-7s %-12s base %.4g [%.4g, %.4g] n=%d  change %.4g [%.4g, %.4g] n=%d  %+.1f%% worse (bound %.0f%%): %s\n",
				wl, m.Name, a2, a1, a3, len(av), b2, b1, b3, len(bv), 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed
}

// separated reports whether every change run is better than every base run.
func separated(base, change []float64, higherBetter bool) bool {
	for _, a := range base {
		for _, b := range change {
			if (higherBetter && b <= a) || (!higherBetter && b >= a) {
				return false
			}
		}
	}
	return true
}

// runCompare implements `perfbench compare BENCHMARK.json base change`.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BENCHMARK.json base-runs change-runs")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(args[0])
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sides [2]*runSet
	for i, path := range args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sides[i], err = readRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if compareRuns(w, spec, sides[0], sides[1]) {
		return 1
	}
	return 0
}
