package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRunMegaBench runs a scaled-down mega tier at several worker counts,
// 0 included. RunMegaBench itself fails on any counter divergence between
// rows, so this test mostly checks the snapshot's shape: every row, 0
// included, ran the epoch engine, and the speedup is taken from the
// workers=1 row.
func TestRunMegaBench(t *testing.T) {
	snap, err := RunMegaBench(120, []int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(snap.Rows))
	}
	if snap.MegaModules < 80 {
		t.Fatalf("mega project has %d modules, want a solver-bound project", snap.MegaModules)
	}
	for _, r := range snap.Rows {
		if r.Epochs == 0 {
			t.Fatalf("workers=%d row recorded no epochs — the epoch engine did not run", r.SolverWorkers)
		}
	}
	if r1, r4 := snap.Row(1), snap.Row(4); snap.SpeedupAt4 != r1.SolveWallMS/r4.SolveWallMS {
		t.Fatalf("speedup at 4 is %v, want workers=1 / workers=4 = %v", snap.SpeedupAt4, r1.SolveWallMS/r4.SolveWallMS)
	}
	if snap.ParallelShare <= 0 || snap.ParallelShare >= 1 {
		t.Fatalf("parallel share %v outside (0, 1)", snap.ParallelShare)
	}

	// The render must be a pure function of the deterministic fields plus
	// wall times; rendering twice from the same snapshot is byte-identical.
	var a, b bytes.Buffer
	snap.Render(&a)
	snap.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot render is not deterministic")
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
