package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreGet writes arbitrary bytes where a record lives, next to a
// profile, and reads the record back, starting from a real Put record and
// its truncations.  Get must never panic; a hit must echo the id with a
// document, and a miss must leave neither the record nor its profile
// behind.
func FuzzStoreGet(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(testRecord(testID)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(testID, runSuffix))
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n < len(valid); n += 1 + len(valid)/32 {
		f.Add(valid[:n])
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run, prof := s.path(testID, runSuffix), s.path(testID, profSuffix)
		if err := os.MkdirAll(filepath.Dir(run), 0o755); err != nil {
			t.Fatal(err)
		}
		for path, b := range map[string][]byte{run: data, prof: []byte("SPRF")} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, ok := s.Get(testID)
		if ok {
			if rec.ID != testID || len(rec.Doc) == 0 {
				t.Fatalf("hit on %q returned id %q and doc %q", data, rec.ID, rec.Doc)
			}
			return
		}
		for _, path := range []string{run, prof} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("miss on %q left %s behind (stat: %v)", data, filepath.Base(path), err)
			}
		}
	})
}
