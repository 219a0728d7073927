// Package cache is the content-addressed persistent artifact store behind
// warm re-analysis: parsed ASTs, approximate-interpretation hint sets, and
// solved analysis outcomes are written to disk keyed by the SHA-256 of the
// exact content they were computed from (file bytes for parses, the whole
// project's file set plus the analysis-options fingerprint for hints and
// outcomes). Because every key covers the complete input of its artifact,
// a cache hit is bit-for-bit equivalent to recomputing — delta re-analysis
// built on this store produces byte-identical reports by construction.
//
// Entries are single files with a versioned binary frame (magic, format
// version, kind, payload checksum); loads validate the whole frame and
// treat any mismatch — truncation, corruption, a stale format version, a
// kind collision — as a miss, never an error or a panic. Writes go through
// a temp file in the same directory followed by an atomic rename, so
// concurrent processes sharing one cache directory see either the complete
// entry or none, and racing writers of the same key are harmless (their
// payloads are identical by the content-addressing argument).
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/modules"
)

// FormatVersion is the on-disk frame version. Bumping it invalidates every
// existing entry (old frames load as misses), which is the upgrade story
// for any change to an artifact's encoding.
const FormatVersion = 1

// magic marks files written by this store.
var magic = [4]byte{'r', 'a', 'c', 'f'}

// Artifact kinds. The kind is part of the frame (a key accidentally shared
// across kinds cannot alias) and of the on-disk layout (one subdirectory
// per kind).
const (
	KindAST     = "ast"
	KindHints   = "hints"
	KindOutcome = "outcome"
)

// Store is one cache directory. All methods are safe for concurrent use,
// including by multiple processes sharing the directory.
type Store struct {
	dir string

	hits, misses, bytesWritten atomic.Int64
}

// tmpMaxAge is how old a leftover temp file must be before Open sweeps it:
// younger ones may belong to a concurrent writer mid-Put.
const tmpMaxAge = time.Hour

// Open creates (if needed) and opens a cache directory. It also sweeps
// stale temp files left behind by writers killed between CreateTemp and
// Rename — nothing else would ever delete them from a long-lived shared
// cache directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepTempFiles(dir, time.Now().Add(-tmpMaxAge))
	return &Store{dir: dir}, nil
}

// sweepTempFiles removes Put's ".<key>.tmp*" files older than cutoff.
// Cheap: entries are sharded into small per-prefix directories. All errors
// are ignored — sweeping is best-effort hygiene, never a reason to fail.
func sweepTempFiles(dir string, cutoff time.Time) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil && info.ModTime().Before(cutoff) {
			_ = os.Remove(path)
		}
		return nil
	})
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats reports loads served, loads missed, and bytes written by this
// Store value since it was opened.
func (s *Store) Stats() (hits, misses, bytesWritten int64) {
	return s.hits.Load(), s.misses.Load(), s.bytesWritten.Load()
}

// entryPath shards entries by key prefix so directories stay small.
func (s *Store) entryPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key)
}

// validKey keeps path construction safe: keys are the lowercase-hex
// fingerprints produced in this package.
func validKey(key string) bool {
	if len(key) < 8 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Get loads the payload stored under (kind, key). Absent, truncated,
// corrupt, and stale-version entries all return ok=false; Get never
// returns an error and never panics on bad bytes.
func (s *Store) Get(kind, key string) (payload []byte, ok bool) {
	if s == nil {
		return nil, false
	}
	if validKey(key) {
		if data, err := os.ReadFile(s.entryPath(kind, key)); err == nil {
			if p, ok := decodeFrame(data, kind); ok {
				s.hits.Add(1)
				return p, true
			}
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores payload under (kind, key) atomically: the frame is written to
// a temp file in the entry's directory and renamed into place. Concurrent
// writers of the same key are safe (last rename wins; the content-address
// argument makes their payloads identical anyway).
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil || !validKey(key) {
		return nil
	}
	dst := s.entryPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	frame := encodeFrame(kind, payload)
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+key+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(frame)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.bytesWritten.Add(int64(len(frame)))
	return nil
}

// Frame layout (big-endian):
//
//	magic   [4]byte  "racf"
//	version uint32   FormatVersion
//	kindLen uint16   + kind bytes
//	paySum  [32]byte SHA-256 of payload
//	payLen  uint64   + payload bytes
func encodeFrame(kind string, payload []byte) []byte {
	out := make([]byte, 0, 4+4+2+len(kind)+32+8+len(payload))
	out = append(out, magic[:]...)
	out = binary.BigEndian.AppendUint32(out, FormatVersion)
	out = binary.BigEndian.AppendUint16(out, uint16(len(kind)))
	out = append(out, kind...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return out
}

// decodeFrame validates every field of the frame; any mismatch is a miss.
func decodeFrame(data []byte, wantKind string) ([]byte, bool) {
	if len(data) < 4+4+2 {
		return nil, false
	}
	if [4]byte(data[:4]) != magic {
		return nil, false
	}
	if binary.BigEndian.Uint32(data[4:8]) != FormatVersion {
		return nil, false
	}
	kindLen := int(binary.BigEndian.Uint16(data[8:10]))
	rest := data[10:]
	if len(rest) < kindLen+32+8 {
		return nil, false
	}
	if string(rest[:kindLen]) != wantKind {
		return nil, false
	}
	rest = rest[kindLen:]
	var wantSum [32]byte
	copy(wantSum[:], rest[:32])
	payLen := binary.BigEndian.Uint64(rest[32:40])
	rest = rest[40:]
	if uint64(len(rest)) != payLen {
		return nil, false
	}
	if sha256.Sum256(rest) != wantSum {
		return nil, false
	}
	return rest, true
}

// ------------------------------------------------------------ fingerprints

// HashBytes returns the lowercase-hex SHA-256 of b.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Fingerprint hashes a sequence of parts with length framing, so part
// boundaries cannot alias ("ab","c" != "a","bc").
func Fingerprint(parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ProjectFingerprint hashes everything the analysis pipeline reads from a
// project: its name (reports embed it), entry configuration, and the full
// file set as sorted (path, content) pairs. Each list is prefixed by its
// element count, so list boundaries cannot alias (MainEntries=["x"] with
// empty TestEntries hashes differently from the reverse). Two projects
// with equal fingerprints are indistinguishable to every pipeline phase,
// which is the soundness basis for whole-outcome reuse.
func ProjectFingerprint(p *modules.Project) string {
	h := sha256.New()
	var lenBuf [8]byte
	wr := func(s string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	wrN := func(n int) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
	}
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
	paths := make([]string, 0, len(p.Files))
	for path := range p.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	wrN(len(paths))
	for _, path := range paths {
		wr(path)
		wr(p.Files[path])
	}
	return hex.EncodeToString(h.Sum(nil))
}
