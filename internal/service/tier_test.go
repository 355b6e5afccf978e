package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spasm"
	"spasm/internal/faults"
	"spasm/internal/service/store"
)

// bootOn starts a one-worker server — a fresh process, as far as the
// result tier can tell — on the durable store in dir.
func bootOn(t *testing.T, dir string) *Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, Store: st})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc
}

// TestTierPrecedenceUniform seeds one id into both the durable store (a
// success persisted by an earlier process) and the negative cache (a
// timeout this process remembers) and requires every endpoint to answer
// from the same tier.  Before the result tier had one lookup order,
// submit and Profile read LRU → store → negative while Status and the
// stream read LRU → negative → store, so the run was "done" on resubmit
// and "failed" on poll.
func TestTierPrecedenceUniform(t *testing.T) {
	dir := t.TempDir()
	spec := spasm.Spec{App: "ep", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	j, _, err := bootOn(t, dir).Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if j.entry.err != "" {
		t.Fatalf("seeding run failed: %s", j.entry.err)
	}
	id := j.id

	endpoints := []struct {
		name  string
		state func(t *testing.T, svc *Server) State
	}{
		{"submit", func(t *testing.T, svc *Server) State {
			j, _, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := svc.Wait(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			return st.State
		}},
		{"status", func(t *testing.T, svc *Server) State {
			st, ok := svc.Status(id)
			if !ok {
				t.Fatal("run unknown to Status")
			}
			return st.State
		}},
		{"stream", func(t *testing.T, svc *Server) State {
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs/"+id+"/stream", nil))
			_, data, ok := strings.Cut(rec.Body.String(), "event: result\ndata: ")
			if !ok {
				t.Fatalf("stream carried no result event: %q", rec.Body.String())
			}
			var st RunStatus
			if err := json.Unmarshal([]byte(strings.TrimSpace(data)), &st); err != nil {
				t.Fatal(err)
			}
			return st.State
		}},
		{"profile", func(t *testing.T, svc *Server) State {
			if _, _, err := svc.Profile(id, ""); err != nil {
				t.Logf("Profile: %v", err)
				return StateFailed
			}
			return StateDone
		}},
	}
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			// A fresh process per endpoint: a store hit promotes into the
			// LRU, which would hide the ordering from the next endpoint.
			svc := bootOn(t, dir)
			svc.results.publish(&entry{id: id, req: RequestFromSpec(spec), err: "run exceeded its wall-clock timeout"})
			if got := ep.state(t, svc); got != StateDone {
				t.Fatalf("%s answered %q; the persisted success must outrank the remembered failure", ep.name, got)
			}
		})
	}
}

// TestTierRetiresOlderModel leaves on disk what a daemon of the previous
// model would have: a version-1 record and, beside it, a profile that
// decodes but describes another run.  The upgraded process must miss,
// recompute, and serve the profile it re-derives — not the stale file.
func TestTierRetiresOlderModel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// run computes spec and its profile, returning the id, the encoded
	// profile, and whether the submission was answered from a cache.
	run := func(svc *Server, spec spasm.Spec) (string, []byte, bool) {
		j, cached, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := svc.Wait(ctx, j); err != nil || st.State != StateDone {
			t.Fatalf("run %+v: state %v, err %v", spec, st.State, err)
		}
		_, raw, err := svc.Profile(j.id, "")
		if err != nil {
			t.Fatal(err)
		}
		return j.id, raw, cached
	}
	spec := spasm.Spec{App: "ep", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2}
	other := spec
	other.P = 4

	first := bootOn(t, dir)
	id, want, _ := run(first, spec)
	otherID, stale, _ := run(first, other)
	if bytes.Equal(want, stale) {
		t.Fatal("the two specs encode the same profile; the test cannot tell them apart")
	}
	file := func(id, suffix string) string { return filepath.Join(dir, id[:2], id+suffix) }
	rec, err := os.ReadFile(file(id, ".run"))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(rec, &env); err != nil {
		t.Fatal(err)
	}
	env["v"] = json.RawMessage("1")
	if rec, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file(id, ".run"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file(id, ".prof"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	svc := bootOn(t, dir)
	if _, ok := svc.results.lookup(id, false); ok {
		t.Fatal("a version-1 record answered a lookup")
	}
	if _, ok := svc.results.lookup(otherID, false); !ok {
		t.Fatal("the current-version record beside it was lost")
	}
	gotID, got, cached := run(svc, spec)
	if gotID != id || cached {
		t.Fatalf("resubmission: id %s cached=%v, want a recomputation of %s", gotID, cached, id)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("profile served after the recomputation is the older record's file, not the re-derived one")
	}
	if st := svc.results.counters().store; st.Errors != 0 {
		t.Fatalf("store counted %d errors; an older version is a miss, not corruption", st.Errors)
	}
}

// TestTierKeepsFailuresApart: successes and failures live in two LRUs,
// so neither kind can push the other out.
func TestTierKeepsFailuresApart(t *testing.T) {
	good := func(i int) *entry { return &entry{id: fmt.Sprintf("good-%d", i)} }
	bad := func(i int) *entry { return &entry{id: fmt.Sprintf("bad-%d", i), err: "boom"} }

	t.Run("failures evict no success", func(t *testing.T) {
		tier := newResultTier(Config{CacheSize: 4})
		tier.publish(good(0))
		for i := 0; i < 2*negativeCacheSize; i++ {
			tier.publish(bad(i))
		}
		if e, ok := tier.lookup("good-0", false); !ok || e.err != "" {
			t.Fatalf("success after %d failures: %+v ok=%v", 2*negativeCacheSize, e, ok)
		}
		if c := tier.counters(); c.negEntries != negativeCacheSize || c.evictions != 0 {
			t.Fatalf("%d failures remembered, %d successes evicted; want %d and 0",
				c.negEntries, c.evictions, negativeCacheSize)
		}
	})
	t.Run("successes evict no failure", func(t *testing.T) {
		tier := newResultTier(Config{CacheSize: 4})
		tier.publish(bad(0))
		for i := 0; i < 8; i++ {
			tier.publish(good(i))
		}
		if e, ok := tier.lookup("bad-0", false); !ok || e.err != "boom" {
			t.Fatalf("failure after 8 successes past a 4-entry cache: %+v ok=%v", e, ok)
		}
		if c := tier.counters(); c.evictions != 4 {
			t.Fatalf("%d successes evicted, want 4", c.evictions)
		}
	})
}

// TestStatusServesFailureUntilTTL: a finished job leaves the active set,
// so the negative cache is where Status finds a failed run — until
// negativeTTL has passed.
func TestStatusServesFailureUntilTTL(t *testing.T) {
	defer faults.Set(faults.RunExec, func() error { return errors.New("injected run failure") })()
	svc := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Shutdown(ctx)
	})
	j, _, err := svc.Submit(spasm.Spec{App: "ep", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if st, ok := svc.Status(j.id); !ok || st.State != StateFailed {
		t.Fatalf("status after the job ended: %+v ok=%v, want failed", st, ok)
	}

	svc.results.mu.Lock()
	now := time.Now()
	_, before := svc.results.neg.get(j.id, now.Add(negativeTTL-time.Second), false)
	_, after := svc.results.neg.get(j.id, now.Add(negativeTTL+time.Second), false)
	svc.results.mu.Unlock()
	if !before || after {
		t.Fatalf("served a second before the TTL: %v, a second after: %v; want true, false", before, after)
	}
	if st, ok := svc.Status(j.id); ok {
		t.Fatalf("status past the TTL: %+v, want the run forgotten", st)
	}
}
