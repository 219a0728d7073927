package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/modules"
	"repro/internal/static"
)

// megaRecord is the checked result of one mega analysis.
type megaRecord struct {
	Hints      int    `json:"hints"`
	Faults     int    `json:"faults"`
	BaseEdges  int    `json:"base_edges"`
	ExtEdges   int    `json:"ext_edges"`
	BaseDigest string `json:"base_digest"`
	ExtDigest  string `json:"ext_digest"`
}

// analyzeMega is one mega op: approx.Run then static.AnalyzeBoth on the
// epoch engine with `workers` scan workers, inside an "op" span. With
// frontEnd, every file is first parsed through the project's parse cache
// in a "modules" span, the traced layout (the layers would otherwise parse
// lazily inside approx).
func analyzeMega(t *tracer, p *modules.Project, workers int, frontEnd bool) (base, ext *static.Result, ar *approx.Result, err error) {
	step := func(name string, f func() error) { t.step(&err, name, f) }
	t.do("op", func() {
		if frontEnd {
			step("modules", func() error { return parseAll(p, p.SortedPaths()) })
		}
		step("approx", func() (e error) { ar, e = approx.Run(p, approx.Options{}); return })
		step("static", func() (e error) {
			base, ext, e = static.AnalyzeBoth(p, static.Options{Mode: static.WithHints, Hints: ar.Hints,
				DegradeFiles: ar.FaultedModules(), SolverWorkers: workers})
			return
		})
	})
	return base, ext, ar, err
}

func megaRecordOf(base, ext *static.Result, ar *approx.Result) megaRecord {
	return megaRecord{
		Hints:      ar.Hints.Count(),
		Faults:     len(ar.Faults) + len(ext.Faults),
		BaseEdges:  base.Graph.NumEdges(),
		ExtEdges:   ext.Graph.NumEdges(),
		BaseDigest: graphDigest(base.Graph),
		ExtDigest:  graphDigest(ext.Graph),
	}
}

func checkMega(got, want megaRecord) error {
	if got.Faults > want.Faults {
		return fmt.Errorf("%d contained faults, reference has %d", got.Faults, want.Faults)
	}
	if got != want {
		return fmt.Errorf("result differs from reference: got %+v, want %+v", got, want)
	}
	return nil
}

func loadMega() (*corpus.Benchmark, []float64) {
	var b *corpus.Benchmark
	var setup []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		b = corpus.Mega(corpus.DefaultMegaModules)
		setup = append(setup, time.Since(start).Seconds())
	}
	return b, setup
}

// runMega runs the mega workload: one analysis per repetition, each in its
// own process, one after another until their summed time reaches the
// budget.
func runMega(cfg config) (*runResult, error) {
	if cfg.trace {
		return traceMega(cfg)
	}
	res, err := runRepeated(cfg, "mega")
	if err == nil {
		res.notes = append(res.notes, fmt.Sprintf("SolverWorkers %d", runtime.NumCPU()))
	}
	return res, err
}

// megaOp is one repetition of the mega workload: generate the project,
// analyze it once, check the result outside the timed region.
func megaOp(cfg config, _ int) (*repResult, error) {
	ref, err := loadRef[megaRecord](cfg.refPath("mega"))
	if err != nil {
		return nil, err
	}
	b, setup := loadMega()
	r := &repResult{Setup: setup, Attempted: 1}
	cpu0, start := processCPU(), time.Now()
	base, ext, ar, err := analyzeMega(nil, b.Project, runtime.NumCPU(), false)
	d := time.Since(start)
	r.Wall, r.CPU = d.Seconds(), (processCPU() - cpu0).Seconds()
	if err == nil {
		err = checkMega(megaRecordOf(base, ext, ar), ref)
	}
	if err != nil {
		r.Failed = 1
		r.Failures = []string{err.Error()}
		return r, nil
	}
	r.Lat = []float64{ms(d)}
	return r, nil
}

// traceMega pairs traced and untraced ops, in-process, until the time is
// up.
func traceMega(cfg config) (*runResult, error) {
	ref, err := loadRef[megaRecord](cfg.refPath("mega"))
	if err != nil {
		return nil, err
	}
	b, setup := loadMega()
	res := &runResult{setup: setup}
	workers := runtime.NumCPU()
	tr := newTraceRun()
	deadline := time.Now().Add(cfg.seconds)
	gc0 := readGC()
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		plain := func() error {
			runtime.GC() // as in megaOp's fresh process: no earlier garbage
			_, _, _, err := analyzeMega(nil, freshProject(b.Project), workers, true)
			return err
		}
		traced := func() {
			p := freshProject(b.Project)
			runtime.GC()
			tr.t.beginOp()
			res.attempted++
			err := probeFrontEnd(tr.t, tr.c, p.Files, p.SortedPaths())
			var base, ext *static.Result
			var ar *approx.Result
			start := time.Now()
			if err == nil {
				base, ext, ar, err = analyzeMega(tr.t, p, workers, true)
			}
			d := time.Since(start)
			if err == nil {
				tr.c.approx(ar)
				tr.c.static(base, ext)
				tr.c.parses(p.ParseCounts())
				err = checkMega(megaRecordOf(base, ext, ar), ref)
			}
			if err != nil {
				res.fail("%v", err)
				return
			}
			res.wall += d
			res.lat = append(res.lat, ms(d))
		}
		if err := tr.pair(k, plain, traced); err != nil {
			return nil, err
		}
		tr.ops++
	}
	tr.gc = gcDelta(gc0, readGC())
	res.cpu = tr.t.opCPU()
	res.layers, res.spans = layerMetrics(tr), tr.t
	res.notes = append(res.notes, fmt.Sprintf("SolverWorkers %d; each traced op paired with the same calls untraced", workers))
	return res, nil
}
