package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/perf"
)

// TestRunMegaBench runs a scaled-down mega tier at several worker counts,
// 0 included. RunMegaBench itself fails on any counter divergence between
// rows, so this test mostly checks the Bench's shape: every row, 0
// included, ran the epoch engine, and the speedup is derived from the
// workers=1 and workers=4 rows.
func TestRunMegaBench(t *testing.T) {
	bench, err := RunMegaBench(120, []int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(bench.Rows))
	}
	if n := len(corpus.Mega(120).Project.Files) - 1; n < 80 {
		t.Fatalf("mega project has %d modules, want a solver-bound project", n)
	}
	for i, w := range []int{0, 1, 2, 4} {
		r := bench.Rows[i]
		if r.Label != perf.MegaLabel(w) || r.SolverWorkers != w {
			t.Fatalf("row %d is %q with %d solver workers, want %q with %d", i, r.Label, r.SolverWorkers, perf.MegaLabel(w), w)
		}
		if r.SolverEpochs == 0 {
			t.Fatalf("workers=%d row recorded no epochs — the epoch engine did not run", w)
		}
		if r.SolveIterations == 0 || r.TokensDelivered == 0 {
			t.Fatalf("workers=%d row recorded no solver effort", w)
		}
	}
	r1, r4 := bench.Row(perf.MegaLabel(1)), bench.Row(perf.MegaLabel(4))
	ratios := bench.Ratios()
	if ratios.SpeedupAt4 != r1.SolveWallMS/r4.SolveWallMS {
		t.Fatalf("speedup at 4 is %v, want workers=1 / workers=4 = %v", ratios.SpeedupAt4, r1.SolveWallMS/r4.SolveWallMS)
	}
	if ratios.ParallelShare <= 0 || ratios.ParallelShare >= 1 {
		t.Fatalf("parallel share %v outside (0, 1)", ratios.ParallelShare)
	}

	// The render must be a pure function of the deterministic fields plus
	// wall times; rendering twice from the same Bench is byte-identical.
	var a, b bytes.Buffer
	bench.Render(&a)
	bench.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("bench render is not deterministic")
	}
}

// TestCorpusSolverWorkersDeterministic runs a corpus slice through the full
// evaluation pipeline at several solver-worker counts, 0 (the default)
// included, and requires the rendered report bytes and outcomes to be
// identical — the 0-byte report-diff guarantee, end to end.
func TestCorpusSolverWorkersDeterministic(t *testing.T) {
	render := func(solverWorkers int) ([]byte, []*Outcome) {
		outs, err := RunCorpusOpts(slice(t, 6), Options{
			WithDynCG: true, Workers: 1, SolverWorkers: solverWorkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderTable1(&buf, outs)
		RenderFigure(&buf, outs, 4)
		RenderFigure(&buf, outs, 5)
		RenderFigure(&buf, outs, 6)
		RenderFigure(&buf, outs, 7)
		RenderTable2(&buf, outs)
		RenderSummary(&buf, Aggregate(outs))
		return buf.Bytes(), outs
	}

	refBytes, refOuts := render(0)
	for _, workers := range []int{1, 2, 4, 8} {
		gotBytes, gotOuts := render(workers)
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatalf("solver workers=%d: rendered report differs from workers=0", workers)
		}
		for i := range refOuts {
			if !reflect.DeepEqual(strip(refOuts[i]), strip(gotOuts[i])) {
				t.Fatalf("solver workers=%d: outcome %d differs from workers=0:\nworkers=0: %+v\ngot:       %+v",
					workers, i, strip(refOuts[i]), strip(gotOuts[i]))
			}
		}
	}
}
