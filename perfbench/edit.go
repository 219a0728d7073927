package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/approx"
	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/modules"
	"repro/internal/static"
)

// editSessions is how many resident sessions the edit workload keeps: one
// per corpus project, the largest by code size.
const editSessions = 8

// daemonApproxDeadline is cmd/analyzed's default per-item pre-analysis
// deadline; the edit workload serves requests with the daemon's settings.
const daemonApproxDeadline = 2 * time.Second

// editProjects returns the editSessions largest corpus projects.
func editProjects() []*modules.Project {
	bs := corpus.All()
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].Project.CodeSize() > bs[j].Project.CodeSize() })
	ps := make([]*modules.Project, editSessions)
	for i := range ps {
		ps[i] = bs[i].Project
	}
	return ps
}

// hotFile is the file a session edits: its main entry, which every run of
// the program loads, so approximate interpretation observes every edit.
func hotFile(p *modules.Project) string { return p.MainEntries[0] }

// editRecord is the checked result of one request: both graphs and the
// hint count of the session's state after it.
type editRecord struct {
	Hints      int    `json:"hints"`
	Faults     int    `json:"faults"`
	BaseDigest string `json:"base_digest"`
	ExtDigest  string `json:"ext_digest"`
}

func editRecordOf(base, ext *static.Result, ar *approx.Result) editRecord {
	return editRecord{Hints: ar.Hints.Count(), Faults: len(ar.Faults) + len(ext.Faults),
		BaseDigest: graphDigest(base.Graph), ExtDigest: graphDigest(ext.Graph)}
}

func stateKey(project, hot string, variant int) string {
	return fmt.Sprintf("%s|%s|%d", project, hot, variant)
}

// fromScratch analyzes a session state the way the independent oracle
// does: a new project with no parse store, approx.Run, AnalyzeBoth.
func fromScratch(orig *modules.Project, hot string, variant int) (editRecord, error) {
	p := freshProject(orig)
	p.Files[hot] = editedSource(orig.Files[hot], variant)
	ar, err := approx.Run(p, approx.Options{})
	if err != nil {
		return editRecord{}, err
	}
	base, ext, err := static.AnalyzeBoth(p, static.Options{Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()})
	if err != nil {
		return editRecord{}, err
	}
	return editRecordOf(base, ext, ar), nil
}

// editReference covers every state of every session.
func editReference() (map[string]editRecord, error) {
	ref := map[string]editRecord{}
	for _, p := range editProjects() {
		hot := hotFile(p)
		for v := -1; v < editVariants; v++ {
			rec, err := fromScratch(p, hot, v)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", stateKey(p.Name, hot, v), err)
			}
			ref[stateKey(p.Name, hot, v)] = rec
		}
	}
	return ref, nil
}

// tracedStore is the cache.Store behind a modules.ParseStore wrapper that
// times each load and store in its own span while the bench is tracing.
type tracedStore struct{ e *editBench }

func (s tracedStore) LoadAST(key string) (prog *ast.Program, ok bool) {
	s.e.t.do("cache.load", func() { prog, ok = s.e.store.LoadAST(key) })
	return prog, ok
}

func (s tracedStore) StoreAST(key string, prog *ast.Program) {
	s.e.t.do("cache.store", func() { s.e.store.StoreAST(key, prog) })
}

// editSession is one resident session, held as cmd/analyzed holds it: a
// delta session plus the pre-analysis memoized by content fingerprint.
type editSession struct {
	orig    *modules.Project // the unedited input
	hot     string
	variant int
	ds      *static.DeltaSession
	fp      string
	hints   *approx.Result
}

// editBench is the edit workload's resident state.
type editBench struct {
	t        *tracer // nil while not tracing
	c        counts
	wrap     bool // traced layout: front end first, store behind tracedStore
	store    *cache.Store
	sessions []*editSession
}

func (e *editBench) parseStore() modules.ParseStore {
	if e.wrap {
		return tracedStore{e}
	}
	return e.store
}

// open (re)opens session s over a copy of from's files: a new project
// backed by the store.
func (e *editBench) open(s *editSession, from *modules.Project) {
	p := freshProject(from)
	p.SetParseStore(e.parseStore())
	s.ds, s.hints, s.fp = static.NewDeltaSession(p), nil, ""
}

// serve runs one request as the daemon's analyze path does: apply the
// delta, re-run the pre-analysis if the content fingerprint changed, then
// DeltaSession.Analyze. In the traced layout (e.wrap) the files the request
// changed or reloaded are parsed first, in their own span; with a tracer,
// every layer call gets a span.
func (e *editBench) serve(req request) (base, ext *static.Result, ar *approx.Result, err error) {
	s := e.sessions[req.session]
	t, c := e.t, e.c
	step := func(name string, f func() error) { t.step(&err, name, f) }
	var dirty []string // the files the request's front end must parse or load
	switch req.kind {
	case reqEdit:
		src := editedSource(s.orig.Files[s.hot], req.variant)
		s.ds.Update(map[string]string{s.hot: src}, nil)
		s.variant = req.variant
		dirty = []string{s.hot}
	case reqReopen:
		e.open(s, s.ds.Project())
		dirty = s.ds.Project().SortedPaths()
	}
	p := s.ds.Project()
	parses0, hits0 := p.ParseCounts()
	if t != nil {
		t.beginOp()
		if req.kind == reqEdit {
			if perr := probeFrontEnd(t, c, p.Files, dirty); perr != nil {
				return nil, nil, nil, perr
			}
		}
	}
	t.do("op", func() {
		if e.wrap {
			step("modules", func() error { return parseAll(p, dirty) })
		}
		if fp := cache.ProjectFingerprint(p); s.hints == nil || fp != s.fp {
			step("approx", func() (aerr error) {
				s.hints, aerr = approx.Run(p, approx.Options{Deadline: daemonApproxDeadline})
				s.fp = fp
				return aerr
			})
			if err == nil && c != nil {
				c.approx(s.hints)
			}
		}
		ar = s.hints
		var reused bool
		step("static", func() (serr error) {
			base, ext, reused, serr = s.ds.Analyze(static.Options{Mode: static.WithHints, Hints: ar.Hints,
				DegradeFiles: ar.FaultedModules()})
			return serr
		})
		if err == nil && c != nil {
			c["static.delta_analyses"]++
			if reused {
				c["static.delta_reused"]++
			} else {
				c.static(base, ext)
			}
		}
	})
	if err == nil && c != nil {
		parses, hits := p.ParseCounts()
		c.parses(parses-parses0, hits-hits0)
	}
	return base, ext, ar, err
}

// setUp builds the resident state: the inputs, a fresh store, and every
// session opened and analyzed once (which primes the store with every
// file's parse).
func (e *editBench) setUp(dir string) error {
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	e.store = store
	e.sessions = nil
	for i, p := range editProjects() {
		s := &editSession{orig: p, hot: hotFile(p), variant: -1}
		e.sessions = append(e.sessions, s)
		e.open(s, p)
		if _, _, _, err := e.serve(request{reqReanalyze, i, -1}); err != nil {
			return fmt.Errorf("open %s: %w", p.Name, err)
		}
	}
	return nil
}

// editChecker checks each request's result against the committed
// reference and against a from-scratch analysis of the same file set,
// computed once per distinct state.
type editChecker struct {
	ref     map[string]editRecord
	scratch map[string]editRecord
}

func (k *editChecker) check(s *editSession, base, ext *static.Result, ar *approx.Result) error {
	key := stateKey(s.orig.Name, s.hot, s.variant)
	got := editRecordOf(base, ext, ar)
	want, ok := k.ref[key]
	if !ok {
		return fmt.Errorf("%s: no reference", key)
	}
	if got.Faults > want.Faults {
		return fmt.Errorf("%s: %d contained faults, reference has %d", key, got.Faults, want.Faults)
	}
	if got != want {
		return fmt.Errorf("%s: result differs from reference: got %+v, want %+v", key, got, want)
	}
	oracle, ok := k.scratch[key]
	if !ok {
		var err error
		if oracle, err = fromScratch(s.orig, s.hot, s.variant); err != nil {
			return fmt.Errorf("%s: from-scratch oracle: %w", key, err)
		}
		k.scratch[key] = oracle
		// Collect the oracle's garbage here, so that the next timed
		// request does not pay for it.
		runtime.GC()
	}
	if got != oracle {
		return fmt.Errorf("%s: result differs from a from-scratch analysis: got %+v, want %+v", key, got, oracle)
	}
	return nil
}

// runEdit runs the edit workload: one closed-loop client, one request in
// flight, over editSessions resident sessions sharing a persistent store in
// a temporary directory. The budget is the requests' own time, rounded up
// to a whole block of the request stream; checks run between requests,
// outside it.
func runEdit(cfg config) (*runResult, error) {
	ref, err := loadRef[map[string]editRecord](cfg.refPath("edit"))
	if err != nil {
		return nil, err
	}
	chk := &editChecker{ref: ref, scratch: map[string]editRecord{}}
	res := &runResult{}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	setUp := func(e *editBench) error {
		dir, err := os.MkdirTemp("", "perfbench-edit-")
		if err != nil {
			return err
		}
		dirs = append(dirs, dir)
		return e.setUp(dir)
	}
	if cfg.trace {
		return res, traceEdit(cfg, res, chk, setUp)
	}
	e := &editBench{}
	gen := newRequestGen(cfg.seed, editSessions)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setUp(e); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	for i, s := range e.sessions {
		base, ext, ar, err := e.serve(request{reqReanalyze, i, -1})
		if err == nil {
			err = chk.check(s, base, ext, ar)
		}
		if err != nil {
			return nil, fmt.Errorf("initial state: %w", err)
		}
	}

	// Requests are served in whole blocks, so every run serves the same mix.
	kinds := map[reqKind]int{}
	for res.wall < cfg.seconds || !gen.blockDone() {
		req := gen.next()
		kinds[req.kind]++
		cpu0 := processCPU()
		start := time.Now()
		base, ext, ar, err := e.serve(req)
		d := time.Since(start)
		res.cpu += processCPU() - cpu0
		res.wall += d
		res.attempted++
		if err == nil {
			err = chk.check(e.sessions[req.session], base, ext, ar)
		}
		if err != nil {
			res.fail("%s %s: %v", req.kind, e.sessions[req.session].orig.Name, err)
			continue
		}
		res.lat = append(res.lat, ms(d))
	}
	res.notes = append(res.notes, fmt.Sprintf("requests: %d edit, %d reanalyze, %d reopen; %d distinct states checked from scratch",
		kinds[reqEdit], kinds[reqReanalyze], kinds[reqReopen], len(chk.scratch)))
	return res, nil
}

// traceEdit serves one request stream to two identical sets of sessions in
// lockstep, one traced and one not, until the time is up.
func traceEdit(cfg config, res *runResult, chk *editChecker, setUp func(*editBench) error) error {
	tr := newTraceRun()
	gen := newRequestGen(cfg.seed, editSessions)
	plain, traced := &editBench{wrap: true}, &editBench{wrap: true}
	if err := setUp(plain); err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setUp(traced); err != nil {
			return err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	traced.t, traced.c = tr.t, tr.c
	deadline := time.Now().Add(cfg.seconds)
	gc0 := readGC()
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		req := gen.next()
		err := tr.pair(k, func() error {
			_, _, _, err := plain.serve(req)
			return err
		}, func() {
			hits0, misses0, bytes0 := traced.store.Stats()
			start := time.Now()
			base, ext, ar, err := traced.serve(req)
			d := time.Since(start)
			hits, misses, bytes := traced.store.Stats()
			tr.c["cache.hits"] += float64(hits - hits0)
			tr.c["cache.misses"] += float64(misses - misses0)
			tr.c["cache.bytes_written"] += float64(bytes - bytes0)
			res.attempted++
			if err == nil {
				err = chk.check(traced.sessions[req.session], base, ext, ar)
			}
			if err != nil {
				res.fail("%s %s: %v", req.kind, traced.sessions[req.session].orig.Name, err)
				return
			}
			res.wall += d
			res.lat = append(res.lat, ms(d))
		})
		if err != nil {
			return err
		}
		tr.ops++
	}
	tr.gc = gcDelta(gc0, readGC())
	res.cpu = tr.t.opCPU()
	res.layers, res.spans = layerMetrics(tr), tr.t
	res.notes = append(res.notes, "each request served to a traced and an untraced copy of the sessions in lockstep; lexer/parser probes re-lex and re-parse each edited file outside the op span")
	return nil
}
