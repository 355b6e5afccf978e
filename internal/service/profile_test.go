package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spasm"
	"spasm/internal/faults"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/client"
)

// TestProfileEndpoint drives GET /v1/runs/{id}/profile end to end: a
// completed run serves its profile in all three formats, the binary
// form is byte-identical across fetches and matches a direct
// RunSpecProfiled encoding, and the second request is a memoization hit
// visible on /metrics.
func TestProfileEndpoint(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 2, CacheSize: 64})
	ctx := context.Background()

	req := service.RunRequest{App: "ep", Scale: "tiny", Machine: "target", Topology: "mesh", P: 4}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("run finished %s (%s)", st.State, st.Error)
	}

	// First fetch computes the profile; the JSON document must carry
	// the run's identity and a plausible epoch series.
	profile := cl.BaseURL + "/v1/runs/" + st.ID + "/profile"
	status, body := get(t, profile)
	var doc report.ProfileDoc
	if err := json.Unmarshal(body, &doc); status != http.StatusOK || err != nil {
		t.Fatalf("profile: HTTP %d, %v: %s", status, err, body)
	}
	if doc.App != "ep" || doc.Machine != "target" || doc.P != 4 {
		t.Fatalf("profile identity wrong: %+v", doc)
	}
	if len(doc.Epochs) == 0 {
		t.Fatal("profile has no epochs")
	}

	// The binary form is byte-identical across fetches, and identical
	// to profiling the same spec directly.
	status1, raw1 := get(t, profile+"?format=bin")
	status2, raw2 := get(t, profile+"?format=bin")
	if status1 != http.StatusOK || status2 != http.StatusOK {
		t.Fatalf("binary profile: HTTP %d then %d", status1, status2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("binary profile not byte-identical across fetches")
	}
	_, direct, err := spasm.RunSpecProfiled(spasm.Spec{
		App: "ep", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := direct.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, buf.Bytes()) {
		t.Fatalf("served profile differs from direct encoding (%d vs %d bytes)",
			len(raw1), buf.Len())
	}
	if dec, err := spasm.DecodeProfile(bytes.NewReader(raw1)); err != nil {
		t.Fatal(err)
	} else if dec.App != "ep" || len(dec.Epochs) != len(doc.Epochs) {
		t.Fatalf("decoded binary profile inconsistent with JSON document")
	}

	// The CSV format serves with its content type and a header row.
	resp, err := http.Get(cl.BaseURL + "/v1/runs/" + st.ID + "/profile?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("csv content type %q", ct)
	}
	if !strings.HasPrefix(string(csv), "epoch,start_us") {
		t.Errorf("csv missing header: %.60s", csv)
	}

	// Only the first request computed; the rest were memoization hits.
	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.MetricValue(page, "spasmd_profile_cache_misses_total"); !ok || v != 1 {
		t.Errorf("spasmd_profile_cache_misses_total = %v, want 1", v)
	}
	if v, ok := client.MetricValue(page, "spasmd_profile_cache_hits_total"); !ok || v < 3 {
		t.Errorf("spasmd_profile_cache_hits_total = %v, want >= 3", v)
	}
}

// TestProfileErrors covers the endpoint's failure surface: unknown ids,
// bad formats, and failed runs.
func TestProfileErrors(t *testing.T) {
	svc, cl := newTestService(t, service.Config{Workers: 1, CacheSize: 16})
	ctx := context.Background()

	if status, _ := get(t, cl.BaseURL+"/v1/runs/"+strings.Repeat("0", 64)+"/profile"); status != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d, want 404", status)
	}

	// A failed run serves 422 from its cached failure.
	restore := faults.Set(faults.RunExec, func() error { return errors.New("injected run failure") })
	st, err := cl.Run(ctx, service.RunRequest{
		App: "fft", Scale: "tiny", Machine: "target", P: 4})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed {
		t.Fatalf("injected failure: state %s", st.State)
	}
	if status, _ := get(t, cl.BaseURL+"/v1/runs/"+st.ID+"/profile"); status != http.StatusUnprocessableEntity {
		t.Errorf("failed run: HTTP %d, want 422", status)
	}

	// Bad ?format= on a good run is a 400.
	good, err := cl.Run(ctx, service.RunRequest{
		App: "ep", Scale: "tiny", Machine: "logp", Topology: "full", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(cl.BaseURL + "/v1/runs/" + good.ID + "/profile?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml: HTTP %d, want 400", resp.StatusCode)
	}

	// Server-side API: an in-flight id reports ErrRunActive (the tiny
	// run may already have completed, in which case success is legal —
	// but any error must be ErrRunActive).
	block, _, err := svc.Submit(spasm.Spec{
		App: "ep", Scale: spasm.Tiny, Seed: 99, Machine: spasm.Target, Topology: "full", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Profile(block.ID(), ""); err != nil && !errors.Is(err, service.ErrRunActive) {
		t.Errorf("in-flight profile: %v, want ErrRunActive or success", err)
	}
	<-block.Done()

	// Server-side API: an unknown id is ErrUnknownRun.
	if _, _, err := svc.Profile("deadbeef", ""); !errors.Is(err, service.ErrUnknownRun) {
		t.Errorf("unknown id via API: %v, want ErrUnknownRun", err)
	}
}

// TestRetryAfterAndRejectionMetrics checks the back-pressure headers:
// 503s carry Retry-After, and queue-full rejections are counted.
func TestRetryAfterAndRejectionMetrics(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	// Fill the single-slot queue with slow-ish jobs until one bounces.
	var rejected bool
	for i := 0; i < 64 && !rejected; i++ {
		_, _, err := svc.Submit(spasm.Spec{
			App: "fft", Scale: spasm.Tiny, Seed: int64(i + 1),
			Machine: spasm.Target, Topology: "full", P: 8})
		if errors.Is(err, service.ErrQueueFull) {
			rejected = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	page := svc.RenderMetrics()
	if v, ok := client.MetricValue(page, "spasmd_jobs_rejected_total"); rejected && (!ok || v < 1) {
		t.Errorf("spasmd_jobs_rejected_total = %v after a rejection, want >= 1", v)
	}
	if !rejected {
		t.Log("queue never filled; rejection counter not exercised")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Draining: POST /v1/runs answers 503 with the drain Retry-After.
	h := svc.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs",
		strings.NewReader(`{"app":"ep","scale":"tiny","machine":"logp","topology":"full","p":2,"seed":12345}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: HTTP %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "5" {
		t.Errorf("draining Retry-After = %q, want \"5\"", ra)
	}
}

// isStatus reports whether err is a client API error carrying the given
// HTTP status (the client formats them as "spasmd: HTTP <code>: ...").
func isStatus(err error, status int) bool {
	return err != nil && strings.Contains(err.Error(), fmt.Sprintf("HTTP %d", status))
}
