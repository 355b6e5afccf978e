package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"testing"
	"time"

	"spasm/internal/service"
	"spasm/internal/service/client"
	"spasm/internal/service/store"
)

// TestStoreWarmRestart is the durability contract end to end: a run
// computed by one spasmd process is served by the next process from
// disk — cached, byte-identical, and without burning a worker.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 4}

	// First process: compute the run and its profile, both written
	// through to the store.
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c1 := newTestService(t, service.Config{Workers: 2, Store: st1})
	first, err := c1.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != service.StateDone || first.Cached {
		t.Fatalf("first run: state=%s cached=%v, want a fresh done run", first.State, first.Cached)
	}
	status, firstProf := get(t, c1.BaseURL+"/v1/runs/"+first.ID+"/profile?format=bin")
	if status != http.StatusOK {
		t.Fatalf("first profile: HTTP %d: %s", status, firstProf)
	}

	// Second process: same directory, fresh memory.  The submission is
	// answered from disk outright.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Entries == 0 {
		t.Fatal("reopened store is empty; nothing was persisted")
	}
	svc2, c2 := newTestService(t, service.Config{Workers: 2, Store: st2})
	second, err := c2.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != service.StateDone || !second.Cached {
		t.Fatalf("restarted submit: state=%s cached=%v, want done from the store", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("result bytes differ across restart:\n%s\nvs\n%s", first.Result, second.Result)
	}
	status, secondProf := get(t, c2.BaseURL+"/v1/runs/"+first.ID+"/profile?format=bin")
	if status != http.StatusOK {
		t.Fatalf("restarted profile: HTTP %d: %s", status, secondProf)
	}
	if !bytes.Equal(firstProf, secondProf) {
		t.Fatal("profile bytes differ across restart")
	}

	// No worker ran: the second process never counted a submission or a
	// profile derivation — both were store hits.
	page := svc2.RenderMetrics()
	if v, ok := client.MetricValue(page, "spasmd_jobs_submitted_total"); !ok || v != 0 {
		t.Fatalf("spasmd_jobs_submitted_total = %v after restart, want 0 (no re-simulation)", v)
	}
	if v, ok := client.MetricValue(page, "spasmd_profile_cache_misses_total"); !ok || v != 0 {
		t.Fatalf("spasmd_profile_cache_misses_total = %v after restart, want 0", v)
	}
	if v, ok := client.MetricValue(page, "spasmd_store_hits_total"); !ok || v < 1 {
		t.Fatalf("spasmd_store_hits_total = %v after restart, want >= 1", v)
	}
}

// TestStoreStatusAfterRestart: GET /v1/runs/{id} also reads through the
// store, so a poll-based client can recover its run by ID after the
// daemon bounced.
func TestStoreStatusAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c1 := newTestService(t, service.Config{Workers: 2, Store: st1})
	first, err := c1.Run(ctx, service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 2})
	if err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, c2 := newTestService(t, service.Config{Workers: 2, Store: st2})
	got, err := c2.GetRun(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone || !bytes.Equal(got.Result, first.Result) {
		t.Fatalf("poll after restart: state=%s, result match=%v", got.State, bytes.Equal(got.Result, first.Result))
	}
}

// TestStoreRecordsFromBeforeFidelityRemoval: a store directory written
// by a process that still had the adaptive-fidelity fields keeps
// working.  A plain spec's record is found under the same content
// address and served as a store hit; an adaptive run's record can no
// longer be resubmitted, but whoever holds its ID still gets the stored
// bytes.
func TestStoreRecordsFromBeforeFidelityRemoval(t *testing.T) {
	ctx := context.Background()
	// (a) ID and spec bytes as the parent commit's Spec.Hash and
	// RequestFromSpec produced them (the store does not look inside a doc).
	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 4}
	plain := store.Record{
		ID:   "6251edb7b5620ea473a808ba1f10f64355855b835188167c92eb70e2bd7d4dc0",
		Spec: []byte(`{"app":"fft","scale":"tiny","seed":1,"machine":"target","topology":"mesh","p":4,"port_mode":"combined","protocol":"berkeley"}`),
		Doc:  []byte(`{"program":"fft","machine":"target","topology":"mesh","p":4,"total_us":1,"procs":[]}`),
	}
	// (b) An escalated adaptive run, addressed by the key it had then.
	key := "app=fft scale=tiny seed=1 machine=flow topo=mesh p=8 port=combined proto=berkeley adaptive=true esc=0"
	legacy := store.Record{
		ID:   fmt.Sprintf("%x", sha256.Sum256([]byte(key))),
		Spec: []byte(`{"app":"fft","scale":"tiny","seed":1,"machine":"flow","topology":"mesh","p":8,"port_mode":"combined","protocol":"berkeley","adaptive":true,"escalate_pct":0}`),
		Doc: []byte(`{"program":"fft","machine":"target","topology":"mesh","p":8,"total_us":1,` +
			`"escalation":{"from":"flow","to":"target","threshold_pct":0,"tripped":true,"at_us":0,"share":1},"procs":[]}`),
	}

	dir := t.TempDir()
	old, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.Record{plain, legacy} {
		if err := old.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().Entries; n != 2 {
		t.Fatalf("warm start counted %d records, want 2", n)
	}
	svc, cl := newTestService(t, service.Config{Workers: 1, Store: st})

	hit, err := cl.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.ID != plain.ID || hit.State != service.StateDone || !hit.Cached || !bytes.Equal(hit.Result, plain.Doc) {
		t.Fatalf("resubmission of a stored plain spec: id=%s state=%s cached=%v, result match=%v",
			hit.ID, hit.State, hit.Cached, bytes.Equal(hit.Result, plain.Doc))
	}
	if v, ok := client.MetricValue(svc.RenderMetrics(), "spasmd_jobs_submitted_total"); !ok || v != 0 {
		t.Fatalf("spasmd_jobs_submitted_total = %v, want 0 (the store answered)", v)
	}

	got, err := cl.GetRun(ctx, legacy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone || !bytes.Equal(got.Result, legacy.Doc) {
		t.Fatalf("legacy record: state=%s result %s, want the stored bytes", got.State, got.Result)
	}
}
