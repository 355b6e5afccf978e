package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testID = "00e7f4a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d"

func testRecord(id string) Record {
	return Record{
		ID:    id,
		Spec:  json.RawMessage(`{"app":"fft","p":4}`),
		Doc:   json.RawMessage(`{"program":"fft","total_us":12.5}`),
		Stats: json.RawMessage(`{"Total":8250}`),
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testID); ok {
		t.Fatal("hit on empty store")
	}
	rec := testRecord(testID)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(testID)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.ID != rec.ID || !bytes.Equal(got.Doc, rec.Doc) ||
		!bytes.Equal(got.Spec, rec.Spec) || !bytes.Equal(got.Stats, rec.Stats) {
		t.Fatalf("round trip altered the record: %+v vs %+v", got, rec)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("counters %+v, want entries=1 hits=1 misses=1 writes=1", st)
	}
}

func TestReopenWarm(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(testID)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.PutProfile(testID, []byte("SPRF-test-bytes")); err != nil {
		t.Fatal(err)
	}

	// A different process opening the same directory sees the record and
	// profile byte-identically, and the scan recovers entry/byte counts.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(testID)
	if !ok || !bytes.Equal(got.Doc, rec.Doc) {
		t.Fatalf("reopened store lost the record (ok=%v)", ok)
	}
	raw, ok := s2.GetProfile(testID)
	if !ok || string(raw) != "SPRF-test-bytes" {
		t.Fatalf("reopened store lost the profile (ok=%v, %q)", ok, raw)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("reopen scan counters %+v, want entries=1, bytes>0", st)
	}
}

func TestCorruptRecordIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord(testID)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testID[:2], testID+runSuffix)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testID); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if st := s.Stats(); st.Errors == 0 || st.Entries != 0 {
		t.Fatalf("corruption not counted, or the dropped record still is: %+v", st)
	}
	// The damaged file is removed so a rewrite heals it.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not removed: %v", err)
	}
	if err := s.Put(testRecord(testID)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testID); !ok {
		t.Fatal("rewrite after corruption missed")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("%d entries after the rewrite, want 1", st.Entries)
	}
}

// A record written under another envelope version is a result of an
// older (or newer) model: a plain miss, not corruption, and its profile
// goes with it — left behind, it would be served beside the recomputed
// record it does not describe.
func TestOtherVersionIsAMissAndDropsProfile(t *testing.T) {
	dir := t.TempDir()
	old, err := json.Marshal(envelope{V: envelopeVersion - 1, Record: testRecord(testID)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, testID[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, testID[:2], testID+runSuffix), old, 0o644); err != nil {
		t.Fatal(err)
	}
	// The upgraded daemon opens a directory the old one wrote.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutProfile(testID, []byte("SPRF-of-the-old-model")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("%d entries after opening a directory of one record, want 1", st.Entries)
	}
	if _, ok := s.Get(testID); ok {
		t.Fatal("record of another version served as a hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.Errors != 0 || st.Entries != 0 {
		t.Fatalf("counters %+v, want misses=1 errors=0 entries=0: an upgrade is not corruption, and the record is gone", st)
	}
	if raw, ok := s.GetProfile(testID); ok {
		t.Fatalf("profile %q outlived the record it was derived from", raw)
	}
	if _, err := os.Stat(s.path(testID, runSuffix)); !os.IsNotExist(err) {
		t.Fatalf("stale record not removed: %v", err)
	}
	// The recomputed result replaces it: one record on disk, one counted,
	// here and by the next process to scan the directory.
	if err := s.Put(testRecord(testID)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("%d entries after the re-Put, want 1", st.Entries)
	}
	if reopened, err := Open(dir); err != nil || reopened.Stats().Entries != 1 {
		t.Fatalf("reopened store: %v, %+v", err, reopened.Stats())
	}
}

func TestIDMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A record renamed to another content address must not be served
	// under it: the envelope echoes the id and Get validates the echo.
	other := strings.Repeat("ab", 32)
	if err := s.Put(testRecord(testID)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, testID[:2], testID+runSuffix)
	dst := filepath.Join(dir, other[:2], other+runSuffix)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(other); ok {
		t.Fatal("mismatched id served as a hit")
	}
}

func TestInvalidIDs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "../../etc/passwd", "ABCDEF", "short", strings.Repeat("a", 200)} {
		if err := s.Put(testRecord(id)); err == nil {
			t.Errorf("Put accepted invalid id %q", id)
		}
		if _, ok := s.Get(id); ok {
			t.Errorf("Get hit on invalid id %q", id)
		}
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "00")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, tmpPrefix+"leftover")
	if err := os.WriteFile(tmp, []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived Open: %v", err)
	}
}

func TestRewriteDoesNotDoubleCount(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord(testID)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord(testID)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 || st.Writes != 2 {
		t.Fatalf("counters %+v, want entries=1 writes=2", st)
	}
}
