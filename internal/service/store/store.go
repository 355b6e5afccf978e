// Package store is spasmd's durable, content-addressed result store: a
// directory of records keyed by spec hash, each holding the canonical
// run request, the deterministic RunDoc JSON, and the run's statistics,
// with the run's encoded probe profile in a sibling file.
//
// The store exists because the simulator's determinism makes results
// permanent: a RunDoc is a pure function of its spec, so a record
// written by one spasmd process is byte-for-byte the record any future
// process would recompute.  Persisting it turns a restart from a cold
// cache into a warm one — the in-memory LRU stays the read-through
// front, and the disk is the tier below it.
//
// Durability discipline: every write goes to a temporary file in the
// record's own directory, is fsync'd, renamed over the final name, and
// the directory is fsync'd — so a crash leaves either the old record or
// the new one, never a torn file.  Reads validate the envelope (magic
// version, id echo) and treat any corruption as a miss, counted on the
// error counter, so a damaged file degrades to one re-simulation rather
// than a poisoned cache.
//
// The store is safe for concurrent use by one process.  It performs no
// locking against other processes: spasmd assumes it owns its store
// directory, the same way it owns its listen address.
package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// envelopeVersion is bumped when the record layout *or any simulated
// result* changes (ids are spec hashes: nothing else retires a result of
// an older model); records of any other version are plain misses.
const envelopeVersion = 2

// suffixes of the two files a record may own.
const (
	runSuffix  = ".run"
	profSuffix = ".prof"
)

// Record is one stored result: the raw JSON forms of the canonical
// request, the deterministic RunDoc, and the run statistics.  All three
// are opaque to the store — it round-trips bytes; the service owns the
// schemas.
type Record struct {
	ID    string          `json:"id"`
	Spec  json.RawMessage `json:"spec"`
	Doc   json.RawMessage `json:"doc"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// envelope is the on-disk form of a Record.
type envelope struct {
	V int `json:"v"`
	Record
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits    uint64 // Get calls answered from disk
	Misses  uint64 // Get calls with no (valid) record
	Writes  uint64 // records and profiles written
	Errors  uint64 // I/O or validation failures (reads and writes)
	Entries int    // run records on disk
	Bytes   int64  // total bytes of records and profiles
}

// Store is a disk-backed content-addressed result store rooted at one
// directory.  Methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	hits    uint64
	misses  uint64
	writes  uint64
	errors  uint64
	entries int
	bytes   int64
}

// Open creates (if needed) and scans the store directory, returning a
// Store warmed with its entry and byte counts.  Leftover temporary
// files from an interrupted write are removed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(path) // torn write from a previous process
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		s.bytes += info.Size()
		if strings.HasSuffix(name, runSuffix) {
			s.entries++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// tmpPrefix marks in-flight temporary files; Open sweeps leftovers.
const tmpPrefix = ".tmp-"

// validID reports whether id is a plausible content address (lowercase
// hex, bounded length) — the gate that keeps request-supplied ids from
// ever becoming path traversal.
func validID(id string) bool {
	if len(id) < 8 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns the final path for id with the given suffix, fanning
// records out over 256 subdirectories to keep directory scans flat.
func (s *Store) path(id, suffix string) string {
	return filepath.Join(s.dir, id[:2], id+suffix)
}

// Put durably writes a run record.  The write is atomic (temp + fsync +
// rename + directory fsync): a concurrent crash leaves either the prior
// record or this one.
func (s *Store) Put(rec Record) error {
	if !validID(rec.ID) {
		return s.fail(fmt.Errorf("store: invalid id %q", rec.ID))
	}
	if len(rec.Doc) == 0 {
		return s.fail(fmt.Errorf("store: record %s has no document", rec.ID[:8]))
	}
	data, err := json.Marshal(envelope{V: envelopeVersion, Record: rec})
	if err != nil {
		return s.fail(fmt.Errorf("store: encoding %s: %w", rec.ID[:8], err))
	}
	fresh, err := s.writeAtomic(s.path(rec.ID, runSuffix), data)
	if err != nil {
		return s.fail(err)
	}
	s.mu.Lock()
	s.writes++
	s.bytes += int64(len(data))
	if fresh {
		s.entries++
	}
	s.mu.Unlock()
	return nil
}

// Get returns the record for id.  Any failure — missing file, torn or
// corrupt envelope, id mismatch, another version — reads as a miss and
// removes the record with its profile, which describes the removed run,
// not the one the next Put writes.  Only corruption counts as an error:
// a well-formed record of another version is an upgrade.
func (s *Store) Get(id string) (Record, bool) {
	if !validID(id) {
		return Record{}, false
	}
	data, err := os.ReadFile(s.path(id, runSuffix))
	if err != nil {
		s.miss(false, false)
		return Record{}, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.V != envelopeVersion || env.ID != id || len(env.Doc) == 0 {
		dropped := os.Remove(s.path(id, runSuffix)) == nil
		os.Remove(s.path(id, profSuffix))
		s.miss(err != nil || env.V == envelopeVersion, dropped) // corrupt, unless merely of another version
		return Record{}, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return env.Record, true
}

// PutProfile durably writes a run's canonical encoded profile next to
// its record, with Put's atomicity.
func (s *Store) PutProfile(id string, raw []byte) error {
	if !validID(id) {
		return s.fail(fmt.Errorf("store: invalid id %q", id))
	}
	if len(raw) == 0 {
		return s.fail(fmt.Errorf("store: empty profile for %s", id[:8]))
	}
	if _, err := s.writeAtomic(s.path(id, profSuffix), raw); err != nil {
		return s.fail(err)
	}
	s.mu.Lock()
	s.writes++
	s.bytes += int64(len(raw))
	s.mu.Unlock()
	return nil
}

// GetProfile returns the stored encoded profile for id, if any.
func (s *Store) GetProfile(id string) ([]byte, bool) {
	if !validID(id) {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(id, profSuffix))
	if err != nil || len(raw) == 0 {
		return nil, false
	}
	return raw, true
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Writes: s.writes,
		Errors: s.errors, Entries: s.entries, Bytes: s.bytes}
}

// miss counts a Get that found no valid record; dropped, that it removed
// an invalid one, which the Put that rewrites it will count again.
func (s *Store) miss(corrupt, dropped bool) {
	s.mu.Lock()
	s.misses++
	if corrupt {
		s.errors++
	}
	if dropped {
		s.entries--
	}
	s.mu.Unlock()
}

func (s *Store) fail(err error) error {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
	return err
}

// writeAtomic writes data to path via a same-directory temp file with
// fsync on both the file and its directory, reporting whether the final
// path did not exist before (a fresh record rather than a rewrite).
func (s *Store) writeAtomic(path string, data []byte) (fresh bool, err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	_, statErr := os.Stat(path)
	fresh = os.IsNotExist(statErr)

	f, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-")
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return false, fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return false, fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return false, fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return false, fmt.Errorf("store: committing %s: %w", path, err)
	}
	// fsync the directory so the rename itself is durable.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return fresh, nil
}
