package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spasm/internal/faults"
	"spasm/internal/service"
	"spasm/internal/service/client"
)

// flowReq is the acceptance-gate spec: a 256-processor run on the flow
// tier, large enough that the probe closes several epochs mid-run.
var flowReq = service.RunRequest{App: "uniform", Scale: "tiny", Machine: "flow", Topology: "torus", P: 256}

// metricEventually polls the metrics page until name reaches at least
// want (metrics tick moments after the observable effect, e.g. a
// deferred release after a handler returns).
func metricEventually(t *testing.T, svc *service.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := client.MetricValue(svc.RenderMetrics(), name); ok && v >= want {
			return
		}
		if time.Now().After(deadline) {
			v, _ := client.MetricValue(svc.RenderMetrics(), name)
			t.Fatalf("%s = %v, want >= %v", name, v, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamDeliversEpochs: a streamed submission yields live epoch
// events — at least two before the terminal result — and the streamed
// run's RunDoc is byte-identical to a plain (uninstrumented) run of the
// same spec.
func TestStreamDeliversEpochs(t *testing.T) {
	svc, c := newTestService(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var order []string
	final, err := c.RunStream(ctx, flowReq, func(ev client.StreamEvent) error {
		order = append(order, ev.Event)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("streamed run ended %s: %s", final.State, final.Error)
	}
	epochs := 0
	sawResult := false
	for _, ev := range order {
		switch ev {
		case "epoch":
			if sawResult {
				t.Fatal("epoch event after the result event")
			}
			epochs++
		case "result":
			sawResult = true
		}
	}
	if epochs < 2 {
		t.Fatalf("stream delivered %d epoch events (%v), want >= 2 before completion", epochs, order)
	}
	if !sawResult || order[0] != "state" {
		t.Fatalf("stream order %v, want state first and a result", order)
	}

	// The instrumented run must not perturb the result: a plain run on a
	// fresh server produces the same bytes.
	_, plainClient := newTestService(t, service.Config{Workers: 2})
	plain, err := plainClient.Run(ctx, flowReq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Result, plain.Result) {
		t.Fatal("streamed run's RunDoc differs from a plain run of the same spec")
	}

	page := svc.RenderMetrics()
	if v, ok := client.MetricValue(page, "spasmd_stream_events_total"); !ok || v < 2 {
		t.Fatalf("spasmd_stream_events_total = %v, want >= 2", v)
	}
	if v, ok := client.MetricValue(page, "spasmd_streams_active"); !ok || v != 0 {
		t.Fatalf("spasmd_streams_active = %v after stream closed, want 0", v)
	}
}

// TestStreamClientDisconnectMidRun: a pending streamed job whose only
// client disconnects is canceled before it burns a worker, via the same
// waiter-refcounted release as SubmitWaited.
func TestStreamClientDisconnectMidRun(t *testing.T) {
	// Wedge the single worker on another job so the streamed one stays
	// pending.
	release := make(chan struct{})
	var once sync.Once
	restore := faults.Set(faults.WorkerStall, func() error {
		<-release
		return nil
	})
	defer restore()
	defer once.Do(func() { close(release) })

	svc, c := newTestService(t, service.Config{Workers: 1})
	blockSpec, err := (service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 2}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	blocker, _, err := svc.Submit(blockSpec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawState := make(chan struct{}, 1)
	go func() {
		c.RunStream(ctx, flowReq, func(ev client.StreamEvent) error {
			select {
			case sawState <- struct{}{}:
			default:
			}
			return nil
		})
	}()
	select {
	case <-sawState:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never delivered its first event")
	}
	cancel() // client walks away; the pending job should be canceled

	metricEventually(t, svc, "spasmd_jobs_canceled_total", 1)
	once.Do(func() { close(release) })
	<-blocker.Done()
}

// TestStreamShutdownMidStream: Shutdown drains rather than drops — a
// run being streamed completes, and its subscriber receives the result.
func TestStreamShutdownMidStream(t *testing.T) {
	svc, c := newTestService(t, service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	started := make(chan struct{}, 1)
	done := make(chan *service.RunStatus, 1)
	go func() {
		final, err := c.RunStream(ctx, flowReq, func(ev client.StreamEvent) error {
			select {
			case started <- struct{}{}:
			default:
			}
			return nil
		})
		if err != nil {
			t.Errorf("stream during shutdown: %v", err)
		}
		done <- final
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never started")
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case final := <-done:
		if final == nil || final.State != service.StateDone {
			t.Fatalf("stream across shutdown ended %+v, want done", final)
		}
	case <-time.After(time.Minute):
		t.Fatal("stream never completed after shutdown drain")
	}
}

// TestStreamCachedRun: attaching to an already-completed run yields its
// single result event immediately — from memory or from the durable
// store.
func TestStreamCachedRun(t *testing.T) {
	_, c := newTestService(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 4}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	status, body := get(t, c.BaseURL+"/v1/runs/"+first.ID+"/stream")
	data, ok := strings.CutPrefix(string(body), "event: result\ndata: ")
	if status != http.StatusOK || !ok || !strings.HasSuffix(data, "\n\n") || strings.Contains(data, "\nevent:") {
		t.Fatalf("cached stream: HTTP %d %q, want exactly one result event", status, body)
	}
	var final service.RunStatus
	if err := json.Unmarshal([]byte(data), &final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Result, first.Result) {
		t.Fatal("cached stream result differs from the original run")
	}
	if status, _ := get(t, c.BaseURL+"/v1/runs/"+strings.Repeat("ab", 32)+"/stream"); status != http.StatusNotFound {
		t.Fatalf("stream of an unknown run: HTTP %d, want 404", status)
	}
}

// TestBodyTooLarge: request bodies past MaxBodyBytes bounce with 413
// and tick their counter; the submission never reaches the queue.
func TestBodyTooLarge(t *testing.T) {
	svc, c := newTestService(t, service.Config{Workers: 1, MaxBodyBytes: 256})
	body := `{"app":"fft","p":4,"topology":"` + strings.Repeat("x", 512) + `"}`
	resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body got HTTP %d, want 413", resp.StatusCode)
	}
	page := svc.RenderMetrics()
	if v, ok := client.MetricValue(page, "spasmd_body_too_large_total"); !ok || v != 1 {
		t.Fatalf("spasmd_body_too_large_total = %v, want 1", v)
	}
	if v, ok := client.MetricValue(page, "spasmd_jobs_submitted_total"); !ok || v != 0 {
		t.Fatalf("spasmd_jobs_submitted_total = %v, want 0", v)
	}
}

// TestTenantQuotaOverHTTP: a tenant at its outstanding-run quota gets
// 429 with a Retry-After hint; other tenants are unaffected.
func TestTenantQuotaOverHTTP(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	restore := faults.Set(faults.WorkerStall, func() error {
		<-release
		return nil
	})
	defer restore()
	defer once.Do(func() { close(release) })

	svc, c := newTestService(t, service.Config{Workers: 1, TenantQuotaRuns: 1})
	c.Tenant = "alice"
	c.Retry.MaxAttempts = 1 // 429 is retried by default; this test wants the raw status
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	first, err := c.SubmitRun(ctx, service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitRun(ctx, service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 4})
	if err == nil || !strings.Contains(err.Error(), "HTTP 429") {
		t.Fatalf("second submission: %v, want HTTP 429", err)
	}

	// A different tenant is admitted despite alice's saturation.
	other := client.New(c.BaseURL)
	other.Tenant = "bob"
	if _, err := other.SubmitRun(ctx, service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 4}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}

	page := svc.RenderMetrics()
	if v, ok := client.MetricValue(page, `spasmd_tenant_rejected_total{tenant="alice"}`); !ok || v != 1 {
		t.Fatalf("alice's rejected counter = %v, want 1", v)
	}

	once.Do(func() { close(release) })
	if st, err := c.GetRun(ctx, first.ID); err != nil || st == nil {
		t.Fatalf("poll first run: %v", err)
	}
}
