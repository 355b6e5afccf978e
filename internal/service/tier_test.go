package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spasm"
	"spasm/internal/service/store"
)

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
	boot := func(t *testing.T) *Server {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Workers: 1, Store: st})
		t.Cleanup(func() { svc.Shutdown(ctx) })
		return svc
	}

	j, _, err := boot(t).Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.entry.err != "" {
		t.Fatalf("seeding run failed: %s", j.entry.err)
	}
	id := j.ID()

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
			if _, _, err := svc.Profile(id); err != nil {
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
			svc := boot(t)
			svc.results.publish(&entry{id: id, req: RequestFromSpec(spec), err: "run exceeded its wall-clock timeout"})
			if got := ep.state(t, svc); got != StateDone {
				t.Fatalf("%s answered %q; the persisted success must outrank the remembered failure", ep.name, got)
			}
		})
	}
}
