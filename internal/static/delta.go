// File-delta re-analysis. A DeltaSession keeps one project resident —
// most importantly its content-hash-keyed parse cache — applies file
// edits, and re-analyzes on demand, memoizing the last solved result
// against a fingerprint of every analysis input.
//
// Reuse granularity is chosen where exactness is provable:
//
//   - Parses are reused per file: a parse depends only on (path, source),
//     so after an edit every unchanged file's AST comes from the cache and
//     only dirty files are re-parsed (the in-memory cache is keyed by
//     modules.SourceKey, so stale parses cannot be served by construction).
//
//   - The solved fixpoint is reused only whole: when the input fingerprint
//     (file set + analysis options + hints) is unchanged, the previous
//     Results are returned without touching the solver. When anything
//     changed, constraints are regenerated and solved from scratch.
//
// The solver deliberately does NOT try to keep per-file constraint
// suffixes across an edit. The subset solver is monotone — constraints
// and tokens are only ever added — so "remove the dirty file's
// constraints and resume" would require deleting state the fixpoint
// already propagated through shared variables, which the engine cannot do
// exactly. Re-solving from regenerated constraints is therefore the
// exactness-preserving delta: AnalyzeBoth is a pure function of
// (project, options), so the delta path and a from-scratch restart
// produce byte-identical graphs — the seventh fuzz oracle
// (internal/fuzz) asserts exactly this per seed.
package static

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/modules"
)

// DeltaSession is a resident analysis session over one mutable project.
// All methods are safe for concurrent use; analyses are serialized.
type DeltaSession struct {
	mu      sync.Mutex
	project *modules.Project

	// fp fingerprints every input of the last analysis; base/ext are its
	// memoized results.
	fp        string
	base, ext *Result
}

// NewDeltaSession wraps a project for delta re-analysis. The project is
// owned by the session from here on: edits must go through Update.
func NewDeltaSession(project *modules.Project) *DeltaSession {
	return &DeltaSession{project: project}
}

// Project returns the session's project (for read-only inspection).
func (s *DeltaSession) Project() *modules.Project { return s.project }

// Update applies a file delta: changed maps paths to their new content
// (added or overwritten), removed lists paths to delete. Parses of the
// superseded file versions are evicted from the in-memory cache so a
// long-lived session's memory stays bounded by its current file set, and
// artifacts memoized on the project (modules.Project.Memo) are dropped.
func (s *DeltaSession) Update(changed map[string]string, removed []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(changed) == 0 && len(removed) == 0 {
		return
	}
	for path, src := range changed {
		s.project.Files[path] = src
	}
	for _, path := range removed {
		delete(s.project.Files, path)
	}
	s.project.PruneParses()
	s.project.ForgetMemos()
}

// Analyze runs (or reuses) the incremental baseline+extended analysis of
// the session's current file set. When no analysis input changed since the
// last call — file contents, options, hints — the memoized results are
// returned with reused=true and zero solver work. Otherwise the project is
// re-analyzed with a warm parse cache (only dirty files re-parse) and the
// new results are memoized.
func (s *DeltaSession) Analyze(opts Options) (base, ext *Result, reused bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	fp := s.inputFingerprint(opts)
	if s.base != nil && fp == s.fp {
		return s.base, s.ext, true, nil
	}

	base, ext, err = AnalyzeBoth(s.project, opts)
	if err != nil {
		return nil, nil, false, err
	}
	s.base, s.ext, s.fp = base, ext, fp
	return base, ext, false, nil
}

// inputFingerprint hashes every input the analysis outcome depends on: the
// full file set, the entry configuration, the hints, and all
// outcome-affecting options. Every variable-length section is prefixed by
// its element count and every string is length-framed, so section
// boundaries cannot alias with entry values. SolverWorkers is deliberately
// excluded — the epoch engine is report- and counter-identical at every
// worker count, 0 included (see Options.SolverWorkers).
func (s *DeltaSession) inputFingerprint(opts Options) string {
	h := sha256.New()
	var lenBuf [8]byte
	wr := func(str string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(str)))
		h.Write(lenBuf[:])
		h.Write([]byte(str))
	}
	wrN := func(n int) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
	}
	p := s.project
	wr(p.Name)
	wr(p.MainPrefix)
	wrN(len(p.MainEntries))
	for _, e := range p.MainEntries {
		wr(e)
	}
	wrN(len(p.TestEntries))
	for _, e := range p.TestEntries {
		wr(e)
	}
	paths := p.SortedPaths()
	wrN(len(paths))
	for _, path := range paths {
		wr(path)
		wr(p.Files[path])
	}
	wr(fmt.Sprintf("opts %d %t %t %t", opts.Mode,
		opts.DisableDPR, opts.EvalHints, opts.UnknownArgHints))
	if opts.Hints != nil {
		var hj bytes.Buffer
		_ = opts.Hints.WriteJSON(&hj)
		wrN(1)
		wr(hj.String())
	} else {
		wrN(0)
	}
	files := make([]string, 0, len(opts.DegradeFiles))
	for f, on := range opts.DegradeFiles {
		if on {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	wrN(len(files))
	for _, f := range files {
		wr(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}
