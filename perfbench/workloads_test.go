package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testConfig(t *testing.T) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 3, seconds: time.Second, root: root}
}

// TestCorpusPass runs one full corpus pass with its concurrent workers and
// shared hint cache: every op must match the committed reference.
func TestCorpusPass(t *testing.T) {
	r, err := corpusPass(testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 141 || r.Failed != 0 || len(r.Lat) != 141 {
		t.Fatalf("attempted %d, failed %d (%v), %d latencies", r.Attempted, r.Failed, r.Failures, len(r.Lat))
	}
}

// TestEditWorkload serves a short request stream, untraced and traced, and
// checks every request against the references and the from-scratch oracle.
func TestEditWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("serves about a second of requests per mode")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, trace := range []bool{false, true} {
		cfg := testConfig(t)
		cfg.trace = trace
		res, err := runEdit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.attempted == 0 || res.failed != 0 {
			t.Fatalf("trace=%v: attempted %d, failed %d: %v", trace, res.attempted, res.failed, res.failures)
		}
		if trace && len(res.layers) != len(perLayer) {
			t.Errorf("traced run reported %d per-layer metrics, want %d", len(res.layers), len(perLayer))
		}
	}
	if left, _ := os.ReadDir(os.Getenv("TMPDIR")); len(left) != 0 {
		t.Errorf("edit workload left %d temporary entries behind", len(left))
	}
}
