package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json names exactly
// the metrics, with the units, that the benchmark prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms map[string]metric) map[string]string {
		out := map[string]string{}
		for k, m := range ms {
			out[k] = m.Unit
		}
		return out
	}
	listed := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, _ := endToEnd(&runResult{lat: []float64{1}, wall: 1, attempted: 1, peakRSS: 1})
	if got, want := listed(spec.EndToEnd), names(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, benchmark prints %v", got, want)
	}
	layers := layerMetrics(newTraceRun())
	if got, want := listed(spec.PerLayer), names(layers); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, benchmark prints %v", got, want)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if want := sortedKeys(workloads); !reflect.DeepEqual(wl, want) {
		t.Errorf("workloads %v, benchmark runs %v", wl, want)
	}
}
