package service_test

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"spasm/internal/service"
	"spasm/internal/service/client"
	"spasm/internal/service/store"
)

// pinnedSeries is every series the metrics page prints after one stored
// run, one streamed run and one profile request, each as its name and
// label set (the value dropped), sorted.  Dashboards and the benchmark
// read these names; a counter rewrite must drop or rename none of them.
var pinnedSeries = []string{
	`spasmd_body_too_large_total`,
	`spasmd_cache_entries`,
	`spasmd_cache_evictions_total`,
	`spasmd_cache_hits_total`,
	`spasmd_cache_misses_total`,
	`spasmd_cache_negative_entries`,
	`spasmd_cache_negative_hits_total`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="+Inf"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="0.001"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="0.01"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="0.1"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="1"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="10"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="60"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="+Inf"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="0.001"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="0.01"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="0.1"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="1"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="10"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}",le="60"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="+Inf"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="0.001"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="0.01"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="0.1"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="1"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="10"}`,
	`spasmd_http_request_duration_seconds_bucket{path="/v1/runs/{id}/profile",le="60"}`,
	`spasmd_http_request_duration_seconds_sum{path="/v1/runs"}`,
	`spasmd_http_request_duration_seconds_sum{path="/v1/runs/{id}"}`,
	`spasmd_http_request_duration_seconds_sum{path="/v1/runs/{id}/profile"}`,
	`spasmd_http_requests_total{path="/v1/runs"}`,
	`spasmd_http_requests_total{path="/v1/runs/{id}"}`,
	`spasmd_http_requests_total{path="/v1/runs/{id}/profile"}`,
	`spasmd_jobs_canceled_total`,
	`spasmd_jobs_done_total`,
	`spasmd_jobs_failed_total`,
	`spasmd_jobs_rejected_total`,
	`spasmd_jobs_submitted_total`,
	`spasmd_jobs_timeout_total`,
	`spasmd_par_fallbacks_total`,
	`spasmd_pool_contexts_discarded_total`,
	`spasmd_pool_contexts_live`,
	`spasmd_pool_hits_total`,
	`spasmd_pool_misses_total`,
	`spasmd_profile_cache_hits_total`,
	`spasmd_profile_cache_misses_total`,
	`spasmd_profiles_coalesced_total`,
	`spasmd_queue_depth`,
	`spasmd_runs_coalesced_total`,
	`spasmd_runs_parallel_total`,
	`spasmd_store_bytes`,
	`spasmd_store_entries`,
	`spasmd_store_errors_total`,
	`spasmd_store_hits_total`,
	`spasmd_store_misses_total`,
	`spasmd_store_writes_total`,
	`spasmd_stream_events_total`,
	`spasmd_streams_active`,
	`spasmd_streams_started_total`,
	`spasmd_tenant_rejected_total{tenant="default"}`,
	`spasmd_tenant_submitted_total{tenant="default"}`,
	`spasmd_uptime_seconds`,
	`spasmd_workers`,
	`spasmd_workers_busy`,
}

// seriesOf returns the sorted series keys of a metrics page: each line
// up to its last space.
func seriesOf(page string) []string {
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			keys = append(keys, line[:i])
		}
	}
	slices.Sort(keys)
	return keys
}

// TestMetricsNamesPinned: the metrics page names exactly the pinned
// series after a stored, a streamed and a profiled run.
func TestMetricsNamesPinned(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, c := newTestService(t, service.Config{Workers: 2, Store: st})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run, err := c.Run(ctx, service.RunRequest{App: "ep", Scale: "tiny", Machine: "logp", Topology: "cube", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	streamed := service.RunRequest{App: "ep", Scale: "tiny", Machine: "logp", Topology: "cube", P: 8}
	if _, err := c.RunStream(ctx, streamed, func(client.StreamEvent) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if status, body := get(t, c.BaseURL+"/v1/runs/"+run.ID+"/profile"); status != http.StatusOK {
		t.Fatalf("profile: HTTP %d: %s", status, body)
	}
	// A handler's latency is observed after its response is written, so
	// the last request's series may land a moment after the client is
	// answered.
	var got []string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if got = seriesOf(svc.RenderMetrics()); slices.Equal(got, pinnedSeries) {
			return
		}
	}
	t.Fatalf("metrics series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(pinnedSeries, "\n"))
}
