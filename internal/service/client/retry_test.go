package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spasm/internal/service"
)

// fourTries is the default attempt budget, spelled out so a test can
// count against it.
var fourTries = RetryPolicy{MaxAttempts: 4}

func doneStatus(id string) service.RunStatus {
	return service.RunStatus{ID: id, State: service.StateDone, Result: json.RawMessage(`{}`)}
}

// TestRetriesTransient503: a submission that bounces off back-pressure
// twice succeeds on the third attempt, transparently.
func TestRetriesTransient503(t *testing.T) {
	t.Parallel() // two hinted one-second backoffs
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"service: job queue full"}`))
			return
		}
		json.NewEncoder(w).Encode(doneStatus("abc"))
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	st, err := c.SubmitRun(context.Background(), service.RunRequest{App: "ep", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || calls.Load() != 3 {
		t.Fatalf("state=%s calls=%d, want done after 3 attempts", st.State, calls.Load())
	}
}

// TestGivesUpAfterMaxAttempts: a persistent 503 surfaces as the last
// apiError once the attempt budget is exhausted.
func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining"}`))
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	_, err := c.SubmitRun(context.Background(), service.RunRequest{App: "ep", P: 2})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 apiError, got %v", err)
	}
	if calls.Load() != int64(fourTries.MaxAttempts) {
		t.Fatalf("calls = %d, want %d", calls.Load(), fourTries.MaxAttempts)
	}
}

// TestHardErrorsAreNotRetried: 4xx responses are final — retrying a bad
// request would just repeat it.
func TestHardErrorsAreNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad spec"}`))
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	_, err := c.SubmitRun(context.Background(), service.RunRequest{App: "nope", P: 2})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("want 400 apiError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retries on 4xx)", calls.Load())
	}
}

// TestRetrySleepsAreContextBounded: a canceled context cuts the backoff
// short instead of sleeping it out.
func TestRetrySleepsAreContextBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600") // a maxDelay backoff
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.SubmitRun(ctx, service.RunRequest{App: "ep", P: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if since := time.Since(t0); since >= maxDelay {
		t.Fatalf("backoff ignored ctx: slept %v", since)
	}
}

// TestRunToleratesPollBlips: Run keeps polling through a transient
// server hiccup — a run in flight is not abandoned because one status
// poll failed.
func TestRunToleratesPollBlips(t *testing.T) {
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(service.RunStatus{ID: "abc", State: service.StatePending})
			return
		}
		// Polls: every doOnce call fails until attempt 6 — deep enough
		// that one GetRun's whole retry budget (4 attempts) is exhausted
		// and Run's poll-failure tolerance has to absorb it.
		if gets.Add(1) <= 6 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(doneStatus("abc"))
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	st, err := c.Run(context.Background(), service.RunRequest{App: "ep", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
}

// TestRunGivesUpAfterConsecutivePollFailures: an outage outlasting the
// tolerance budget surfaces the poll error instead of spinning forever.
func TestRunGivesUpAfterConsecutivePollFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(service.RunStatus{ID: "abc", State: service.StatePending})
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 1}
	_, err := c.Run(context.Background(), service.RunRequest{App: "ep", P: 2})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("want the final 503 wrapped, got %v", err)
	}
}

// TestRunStopsOnCanceledState: a canceled job is terminal for Run.
func TestRunStopsOnCanceledState(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(service.RunStatus{ID: "abc", State: service.StatePending})
			return
		}
		json.NewEncoder(w).Encode(service.RunStatus{ID: "abc", State: service.StateCanceled, Error: "canceled"})
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	st, err := c.Run(context.Background(), service.RunRequest{App: "ep", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

// TestParseRetryAfter: both RFC 9110 forms are honored, and anything
// malformed, negative, or already in the past degrades to "no hint" so
// the policy's own backoff applies — a bad header can neither stall the
// client nor stampede the server.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"soon", 0},
		{"2.5", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"Sun, 32 Jun 2025 12:00:00 GMT", 0}, // unparseable date
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.header, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestRetryHonorsHTTPDateHint: a Retry-After given as an HTTP-date
// (the form the seconds-only parser used to drop) reaches the backoff
// as a hint.
func TestRetryHonorsHTTPDateHint(t *testing.T) {
	t.Parallel() // one maxDelay backoff
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"busy"}`))
			return
		}
		json.NewEncoder(w).Encode(doneStatus("abc"))
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	t0 := time.Now()
	st, err := c.SubmitRun(context.Background(), service.RunRequest{App: "ep", P: 2})
	if err != nil || st.State != service.StateDone {
		t.Fatalf("st=%v err=%v", st, err)
	}
	// The hint was parsed (not treated as garbage) and clamped by
	// maxDelay rather than slept in full.
	if since := time.Since(t0); since > 10*time.Second {
		t.Fatalf("hour-long hint escaped the maxDelay clamp: %v", since)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestQuotaRejectionIsRetried: 429 (per-tenant quota) clears as the
// tenant's own work drains, so the client retries it like 503.
func TestQuotaRejectionIsRetried(t *testing.T) {
	t.Parallel() // one hinted one-second backoff
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Spasm-Tenant") != "alice" {
			t.Errorf("tenant header = %q, want alice", r.Header.Get("X-Spasm-Tenant"))
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"service: tenant over admission quota"}`))
			return
		}
		json.NewEncoder(w).Encode(doneStatus("abc"))
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retry = fourTries
	c.Tenant = "alice"
	st, err := c.SubmitRun(context.Background(), service.RunRequest{App: "ep", P: 2})
	if err != nil || st.State != service.StateDone {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (429 retried once)", calls.Load())
	}
}
