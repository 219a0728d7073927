package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runsText renders runs the way the benchmark prints them: a report line
// then a result line per run.
func runsText(t *testing.T, h host, workload string, values ...float64) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range values {
		var rep reportLine
		rep.Report.Workload, rep.Report.Host = workload, h
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
		line := resultLine{Correct: true, Attempted: 1, Metrics: map[string]metric{"op_p50_ms": {v, "ms"}}}
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func compareText(t *testing.T, base, change string) (string, bool) {
	t.Helper()
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	a, err := readRuns(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readRuns(strings.NewReader(change))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed := compareRuns(&out, spec, a, b)
	return out.String(), regressed
}

func TestCompareVerdicts(t *testing.T) {
	h := host{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu", GoVersion: "go1.24"}
	base := runsText(t, h, "mega", 100, 101, 99, 100, 102)
	out, regressed := compareText(t, base, runsText(t, h, "mega", 103, 104, 102, 103, 105))
	if regressed || !strings.Contains(out, "within bound") {
		t.Errorf("3%% slower within a 10%% bound:\n%s", out)
	}
	out, regressed = compareText(t, base, runsText(t, h, "mega", 120, 121, 119, 122, 120))
	if !regressed || !strings.Contains(out, "REGRESSED") {
		t.Errorf("20%% slower past a 10%% bound:\n%s", out)
	}
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	a := host{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu", GoVersion: "go1.24"}
	b := a
	b.NProc, b.GOMAXPROCS = 8, 8
	out, regressed := compareText(t, runsText(t, a, "mega", 100, 100), runsText(t, b, "mega", 200, 200))
	if regressed || !strings.HasPrefix(out, "no verdict") || !strings.Contains(out, "nproc, gomaxprocs") {
		t.Errorf("runs from different hosts must get no verdict:\n%s", out)
	}
	// A different commit on the same host is what a comparison is for.
	c := a
	c.Commit, c.SourceDigest = "abc", "def"
	if out, _ := compareText(t, runsText(t, a, "mega", 100), runsText(t, c, "mega", 100)); strings.HasPrefix(out, "no verdict") {
		t.Errorf("a different commit on the same host must still compare:\n%s", out)
	}
}
