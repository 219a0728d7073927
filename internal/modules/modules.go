// Package modules implements the CommonJS module system over in-memory
// projects: require() resolution (relative paths, node_modules packages,
// Node.js built-in modules), module caching, and the module/exports/
// require/__filename/__dirname bindings.
package modules

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/value"
)

// Project is an in-memory JavaScript project: a virtual file system of
// module sources plus package metadata. It substitutes for the npm/GitHub
// checkouts of the paper's corpus.
type Project struct {
	// Name identifies the project in reports.
	Name string
	// Files maps absolute virtual paths ("/app/index.js",
	// "/node_modules/express/lib/application.js") to source text.
	Files map[string]string
	// MainEntries are the entry module paths of the main package; static
	// reachability and approximate interpretation start here.
	MainEntries []string
	// TestEntries are test-suite entry modules used to produce dynamic
	// call graphs (the paper's NodeProf-under-test-suite setup).
	TestEntries []string
	// MainPrefix is the path prefix of the main package (everything
	// outside it counts as dependency code). Defaults to "/" minus
	// node_modules.
	MainPrefix string

	// Shared parse cache: every pipeline phase (approximate interpretation,
	// static analysis, corpus statistics, vulnerability selection, dynamic
	// call graphs) parses through it, so each file is parsed exactly once
	// per project. Lazily created; see Parse.
	parseOnce  sync.Once
	parseCache *parseCache

	// memo holds artifacts later pipeline stages derive from the project;
	// see Memo.
	memo sync.Map
}

// memoEntry is one Memo slot: built once, then read-only.
type memoEntry struct {
	once sync.Once
	v    any
}

// Memo returns the value build computes for key, calling build at most
// once per project and key, also under concurrent callers. The value lives
// as long as the project, or until ForgetMemos, so an artifact several
// consumers share (the dynamic call graph behind both the accuracy and the
// ablation tables) is released together with the project that produced
// it. Keys follow the context.WithValue convention: an unexported type of
// the calling package.
func (p *Project) Memo(key any, build func() any) any {
	e, _ := p.memo.LoadOrStore(key, &memoEntry{})
	ent := e.(*memoEntry)
	ent.once.Do(func() { ent.v = build() })
	return ent.v
}

// ForgetMemos drops every Memo value. Whoever edits Files in place calls
// it, since memoized artifacts describe the old file set.
func (p *Project) ForgetMemos() {
	p.memo.Range(func(key, _ any) bool {
		p.memo.Delete(key)
		return true
	})
}

// ErrNoSource reports a path with neither a project file nor a built-in
// node: module behind it.
var ErrNoSource = errors.New("modules: no such file")

// ParseStore is a persistent parse cache behind the in-memory one:
// implemented by the content-addressed artifact store (internal/cache) and
// attached per project via SetParseStore. Keys are SourceKey values, so
// the persistent and in-memory caches share one key scheme. Loads that
// miss for any reason return ok=false; stores are fire-and-forget.
type ParseStore interface {
	LoadAST(key string) (*ast.Program, bool)
	StoreAST(key string, prog *ast.Program)
}

// SourceKey is the cache key of one parsed file: the SHA-256 over the path
// (embedded in every source location the parser emits) and the source
// bytes, length-framed so the two cannot alias. Parse results depend on
// exactly these inputs, so equal keys mean interchangeable ASTs — within a
// session and across processes sharing a persistent store.
func SourceKey(path, src string) string {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(path)))
	h.Write(lenBuf[:])
	h.Write([]byte(path))
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(src)))
	h.Write(lenBuf[:])
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// parseCache holds parse results for one project, keyed by SourceKey
// (content hash, not path) so an in-session edit of a file invalidates its
// stale parse by construction. The mutex is held across parsing, which
// both serializes concurrent parsers of the same project (the corpus
// driver parallelizes across projects, not within one) and guarantees each
// file version is parsed exactly once.
type parseCache struct {
	mu    sync.Mutex
	progs map[string]*ast.Program
	store ParseStore

	parses, hits int64
	parseWall    time.Duration
}

// cache returns the project's parse cache, creating it on first use.
func (p *Project) cache() *parseCache {
	p.parseOnce.Do(func() { p.parseCache = &parseCache{progs: map[string]*ast.Program{}} })
	return p.parseCache
}

// SetParseStore attaches a persistent parse store to the project. Parses
// not found in memory are looked up there before parsing, and fresh parses
// are written back. Attach before analysis starts; safe to leave nil.
func (p *Project) SetParseStore(s ParseStore) {
	c := p.cache()
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// Parse returns the parsed program for path — a project file or a built-in
// node: module — parsing each file version at most once per project. It is
// safe for concurrent use. Paths with no source return ErrNoSource.
func (p *Project) Parse(path string) (*ast.Program, error) {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := p.Files[path]
	if !ok {
		if src, ok = nodeLibSources[path]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSource, path)
		}
	}
	key := SourceKey(path, src)
	if prog, ok := c.progs[key]; ok {
		c.hits++
		return prog, nil
	}
	if c.store != nil {
		if prog, ok := c.store.LoadAST(key); ok {
			c.progs[key] = prog
			c.hits++
			return prog, nil
		}
	}
	start := time.Now()
	prog, err := parser.Parse(path, src)
	if err != nil {
		return nil, err
	}
	c.parses++
	c.parseWall += time.Since(start)
	c.progs[key] = prog
	if c.store != nil {
		c.store.StoreAST(key, prog)
	}
	return prog, nil
}

// nodeLibKeys memoizes the SourceKeys of the built-in node: modules, which
// are live in every project's parse cache regardless of its file set.
var (
	nodeLibKeysOnce sync.Once
	nodeLibKeys     map[string]bool
)

func builtinParseKeys() map[string]bool {
	nodeLibKeysOnce.Do(func() {
		nodeLibKeys = make(map[string]bool, len(nodeLibSources))
		for path, src := range nodeLibSources {
			nodeLibKeys[SourceKey(path, src)] = true
		}
	})
	return nodeLibKeys
}

// PruneParses evicts cached parses whose content no longer appears in the
// project. The cache is keyed by content hash, so without pruning every
// edit in a long-lived session strands the superseded version's AST in
// memory forever; pruning after each edit bounds the cache by the current
// file set (plus the built-in node: modules, which stay resident). An
// evicted parse can still be re-served by the persistent store if the old
// content comes back. The caller must ensure p.Files is not concurrently
// mutated (delta sessions call this under their session lock).
func (p *Project) PruneParses() {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.progs) == 0 {
		return
	}
	builtin := builtinParseKeys()
	live := make(map[string]bool, len(p.Files))
	for path, src := range p.Files {
		live[SourceKey(path, src)] = true
	}
	for key := range c.progs {
		if !live[key] && !builtin[key] {
			delete(c.progs, key)
		}
	}
}

// ParseCounts reports how many parses the project's cache performed and how
// many repeat requests it served from cache.
func (p *Project) ParseCounts() (parses, hits int64) {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parses, c.hits
}

// ParseWall reports the wall time the project's cache spent parsing.
func (p *Project) ParseWall() time.Duration {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parseWall
}

// SortedPaths returns all file paths in deterministic order.
func (p *Project) SortedPaths() []string {
	paths := make([]string, 0, len(p.Files))
	for f := range p.Files {
		paths = append(paths, f)
	}
	sort.Strings(paths)
	return paths
}

// IsMainModule reports whether path belongs to the main package (not a
// dependency under node_modules).
func (p *Project) IsMainModule(path string) bool {
	if strings.Contains(path, "/node_modules/") || strings.HasPrefix(path, "node:") {
		return false
	}
	if p.MainPrefix != "" {
		return strings.HasPrefix(path, p.MainPrefix)
	}
	return true
}

// Packages returns the distinct package roots in the project: the main
// package plus each node_modules/<name> directory.
func (p *Project) Packages() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	add("<main>")
	for path := range p.Files {
		if i := strings.Index(path, "/node_modules/"); i >= 0 {
			rest := path[i+len("/node_modules/"):]
			if j := strings.Index(rest, "/"); j >= 0 {
				add(rest[:j])
			} else {
				add(strings.TrimSuffix(rest, ".js"))
			}
		}
	}
	sort.Strings(out)
	return out
}

// CodeSize returns the total source size in bytes.
func (p *Project) CodeSize() int {
	total := 0
	for _, src := range p.Files {
		total += len(src)
	}
	return total
}

// nodeBuiltins is the set of Node.js modules implemented by this runtime.
// Pure modules are written in JavaScript (see nodelib.go) so that their
// functions participate in analysis like any dependency code; external
// modules touch the outside world and are sandbox-mocked during
// approximate interpretation, per the paper.
var externalModules = map[string]bool{
	"fs": true, "net": true, "http": true, "https": true, "child_process": true,
	"os": true, "dgram": true, "tls": true, "cluster": true, "dns": true,
	"readline": true, "zlib": true, "crypto": true,
}

// Registry loads and caches modules for one interpreter instance.
type Registry struct {
	Project *Project
	Interp  *interp.Interp

	// Sandbox replaces external Node modules with mocks (approximate mode).
	Sandbox bool

	cache    map[string]value.Value // module path → exports
	inFlight map[string]*value.Object
}

// NewRegistry wires a project to an interpreter and installs itself as the
// interpreter's ModuleHost.
func NewRegistry(project *Project, it *interp.Interp) *Registry {
	r := &Registry{
		Project:  project,
		Interp:   it,
		cache:    map[string]value.Value{},
		inFlight: map[string]*value.Object{},
	}
	it.ModuleHost = r
	return r
}

// ParseAll parses every file in the project, returning programs keyed by
// path. Parse results come from the project's shared cache, so files
// already parsed by another phase are not parsed again.
func (r *Registry) ParseAll() (map[string]*ast.Program, error) {
	out := map[string]*ast.Program{}
	for _, path := range r.Project.SortedPaths() {
		prog, err := r.parse(path)
		if err != nil {
			return nil, err
		}
		out[path] = prog
	}
	return out, nil
}

func (r *Registry) parse(path string) (*ast.Program, error) {
	return r.Project.Parse(path)
}

// Require implements interp.ModuleHost.
func (r *Registry) Require(from, name string) (value.Value, error) {
	path, err := r.Resolve(from, name)
	if err != nil {
		return nil, r.Interp.ThrowError("Error", err.Error())
	}
	return r.Load(path)
}

// Resolve maps a require() specifier to a module path, following the
// CommonJS rules for relative paths and node_modules lookups.
func (r *Registry) Resolve(from, name string) (string, error) {
	return Resolve(r.Project, from, name)
}

// Resolve is the pure module-resolution function behind Registry.Resolve;
// the static analysis uses it directly (no interpreter required).
func Resolve(p *Project, from, name string) (string, error) {
	name = strings.TrimPrefix(name, "node:")
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "../") || strings.HasPrefix(name, "/") {
		base := dirOf(from)
		cand := normalize(joinPath(base, name))
		for _, c := range []string{cand, cand + ".js", cand + "/index.js"} {
			if _, ok := p.Files[c]; ok {
				return c, nil
			}
		}
		return "", fmt.Errorf("cannot find module '%s' from %s", name, from)
	}
	// Built-in Node modules.
	if externalModules[name] {
		return "node:" + name, nil
	}
	if _, ok := nodeLibSources["node:"+name]; ok {
		return "node:" + name, nil
	}
	// node_modules lookup (flat layout).
	for _, c := range []string{
		"/node_modules/" + name + "/index.js",
		"/node_modules/" + name + ".js",
		"/node_modules/" + name,
	} {
		if _, ok := p.Files[c]; ok {
			return c, nil
		}
	}
	// main field convention: /node_modules/<name>/main.js
	if _, ok := p.Files["/node_modules/"+name+"/main.js"]; ok {
		return "/node_modules/" + name + "/main.js", nil
	}
	return "", fmt.Errorf("cannot find module '%s' from %s", name, from)
}

// Load executes (or returns the cached exports of) the module at path.
func (r *Registry) Load(path string) (value.Value, error) {
	if v, ok := r.cache[path]; ok {
		return v, nil
	}
	// Cyclic requires observe the partially initialized exports object, as
	// in Node.
	if exports, ok := r.inFlight[path]; ok {
		return exports, nil
	}

	// External modules: mocked under sandbox, minimal JS implementations
	// otherwise.
	if strings.HasPrefix(path, "node:") {
		name := strings.TrimPrefix(path, "node:")
		if externalModules[name] {
			if r.Sandbox {
				mock := r.Interp.NewMockModule()
				r.cache[path] = mock
				return mock, nil
			}
			// Concrete mode uses the same JS stubs (no real I/O exists in
			// this environment either way).
		}
		if _, ok := nodeLibSources[path]; !ok {
			return nil, r.Interp.ThrowError("Error", "unsupported built-in module "+path)
		}
	}

	prog, err := r.parse(path)
	if err != nil {
		return nil, r.Interp.ThrowError("SyntaxError", err.Error())
	}

	it := r.Interp
	exports := it.NewPlainObject()
	module := it.NewPlainObject()
	module.Set("exports", exports)
	module.Set("id", value.String(path))
	r.inFlight[path] = exports
	// Deferred so a panic unwinding out of module code (contained further up
	// by the per-item recovery in approx/dyncg) does not leave the module
	// permanently "in flight", which would hand its half-initialized exports
	// to every later require.
	defer delete(r.inFlight, path)

	scope := value.NewScope(it.GlobalScope())
	scope.Declare("module", module)
	scope.Declare("exports", exports)
	scope.Declare("__filename", value.String(path))
	scope.Declare("__dirname", value.String(dirOf(path)))
	scope.Declare("require", r.makeRequire(path))

	_, err = it.RunProgram(prog, scope, exports)
	if err != nil {
		return nil, err
	}
	// module.exports may have been reassigned.
	var result value.Value = exports
	if p := module.GetOwn("exports"); p != nil && !p.IsAccessor() {
		result = p.Value
	}
	r.cache[path] = result
	return result, nil
}

// LoadedPaths returns every module path whose top-level code this registry
// has executed to completion (entries and transitive requires alike), in
// sorted order.
func (r *Registry) LoadedPaths() []string {
	out := make([]string, 0, len(r.cache))
	for p := range r.cache {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) makeRequire(from string) *value.Object {
	req := r.Interp.NewNativeFunction("require", func(h value.Host, this value.Value, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return nil, r.Interp.ThrowError("TypeError", "require expects a module name")
		}
		name := value.ToString(args[0])
		return r.Require(from, name)
	})
	return req
}

// LoadEntries loads every main entry module of the project in order.
func (r *Registry) LoadEntries() error {
	for _, e := range r.Project.MainEntries {
		if _, err := r.Load(e); err != nil {
			return fmt.Errorf("loading %s: %w", e, err)
		}
	}
	return nil
}

// ----------------------------------------------------------------- path ops

func dirOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

func joinPath(base, rel string) string {
	if strings.HasPrefix(rel, "/") {
		return rel
	}
	return base + "/" + rel
}

func normalize(path string) string {
	parts := strings.Split(path, "/")
	var out []string
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return "/" + strings.Join(out, "/")
}
