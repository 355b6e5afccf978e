package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spasm"
)

// latencyBounds are the per-endpoint histogram bucket upper bounds, in
// seconds.  Simulations span ~milliseconds (tiny scale) to minutes
// (medium-scale figures), so the buckets are decades.
var latencyBounds = [...]float64{0.001, 0.01, 0.1, 1, 10, 60}

// histogram is a fixed-bucket latency histogram (counts per bound, plus
// the +Inf bucket implied by n).
type histogram struct {
	counts [len(latencyBounds)]uint64
	sum    float64 // seconds
	n      uint64
}

func (h *histogram) observe(seconds float64) {
	h.sum += seconds
	h.n++
	for i, b := range latencyBounds {
		if seconds <= b {
			h.counts[i]++
		}
	}
}

// Metrics aggregates the service's operational counters.  The cache and
// queue counters live with their owners; Metrics covers jobs, workers
// and HTTP latency.  The scalar counters and gauges are atomics, updated
// where the event happens; only the maps sit behind mu.
type Metrics struct {
	start   time.Time
	workers int

	submitted     atomic.Uint64
	coalesced     atomic.Uint64
	done          atomic.Uint64
	failed        atomic.Uint64
	canceled      atomic.Uint64 // jobs dropped before execution (all waiters gone)
	runsParallel  atomic.Uint64 // runs executed on the windowed parallel kernel
	parFallbacks  atomic.Uint64 // runs that requested parallel but fell back to sequential
	timeouts      atomic.Uint64 // failed jobs whose failure was the run deadline
	rejected      atomic.Uint64 // submissions bounced with ErrQueueFull
	profHits      atomic.Uint64 // profiles served from the memoized encoding
	profMiss      atomic.Uint64 // profiles computed on demand
	profCoalesced atomic.Uint64 // profile requests that waited on an in-flight computation
	bodyLimited   atomic.Uint64 // requests rejected 413 by the body-size cap
	streamsOpened atomic.Uint64 // SSE stream subscriptions accepted
	streamsActive atomic.Int64  // SSE streams currently connected
	streamEvents  atomic.Uint64 // epoch events published to stream hubs
	busy          atomic.Int64

	mu       sync.Mutex
	byPath   map[string]*histogram
	byTenant map[string]*tenantCounters
}

// tenantCounters is one tenant's admission tally.
type tenantCounters struct {
	submitted atomic.Uint64
	rejected  atomic.Uint64 // submissions bounced with ErrTenantQuota
}

func newMetrics(start time.Time, workers int) *Metrics {
	return &Metrics{start: start, workers: workers,
		byPath:   make(map[string]*histogram),
		byTenant: make(map[string]*tenantCounters),
	}
}

// tenant returns name's admission tally, creating it on first use.
func (m *Metrics) tenant(name string) *tenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.byTenant[name]
	if t == nil {
		t = &tenantCounters{}
		m.byTenant[name] = t
	}
	return t
}

func (m *Metrics) observe(path string, d time.Duration) {
	m.mu.Lock()
	h := m.byPath[path]
	if h == nil {
		h = &histogram{}
		m.byPath[path] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// render writes the metrics in the Prometheus text exposition format.
// Result-tier, queue, and pool figures are passed in by the Server,
// which owns them.
func (m *Metrics) render(b *strings.Builder, queueDepth int, tier tierCounters, pool spasm.PoolStats, tenantQueued []tenantDepth) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(b, "spasmd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(b, "spasmd_workers %d\n", m.workers)
	fmt.Fprintf(b, "spasmd_workers_busy %d\n", m.busy.Load())
	fmt.Fprintf(b, "spasmd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(b, "spasmd_jobs_submitted_total %d\n", m.submitted.Load())
	fmt.Fprintf(b, "spasmd_runs_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(b, "spasmd_jobs_done_total %d\n", m.done.Load())
	fmt.Fprintf(b, "spasmd_jobs_failed_total %d\n", m.failed.Load())
	fmt.Fprintf(b, "spasmd_jobs_canceled_total %d\n", m.canceled.Load())
	fmt.Fprintf(b, "spasmd_jobs_timeout_total %d\n", m.timeouts.Load())
	fmt.Fprintf(b, "spasmd_jobs_rejected_total %d\n", m.rejected.Load())
	// Parallel-execution outcomes: runs that asked for workers > 1 and ran
	// on the windowed kernel, vs ones that fell back to the sequential
	// kernel (not a stream on LogP, Flow or Ideal, probes attached, ...).
	fmt.Fprintf(b, "spasmd_runs_parallel_total %d\n", m.runsParallel.Load())
	fmt.Fprintf(b, "spasmd_par_fallbacks_total %d\n", m.parFallbacks.Load())
	fmt.Fprintf(b, "spasmd_profile_cache_hits_total %d\n", m.profHits.Load())
	fmt.Fprintf(b, "spasmd_profile_cache_misses_total %d\n", m.profMiss.Load())
	fmt.Fprintf(b, "spasmd_profiles_coalesced_total %d\n", m.profCoalesced.Load())
	fmt.Fprintf(b, "spasmd_cache_hits_total %d\n", tier.hits)
	fmt.Fprintf(b, "spasmd_cache_misses_total %d\n", tier.misses)
	fmt.Fprintf(b, "spasmd_cache_evictions_total %d\n", tier.evictions)
	fmt.Fprintf(b, "spasmd_cache_entries %d\n", tier.entries)
	// negative_hits counts submissions answered a remembered failure —
	// distinct from cache_hits, which stays a successes-only counter.
	fmt.Fprintf(b, "spasmd_cache_negative_hits_total %d\n", tier.negHits)
	fmt.Fprintf(b, "spasmd_cache_negative_entries %d\n", tier.negEntries)
	if st := tier.store; st != nil {
		// Durable result store: disk tier below the in-memory LRU.
		fmt.Fprintf(b, "spasmd_store_hits_total %d\n", st.Hits)
		fmt.Fprintf(b, "spasmd_store_misses_total %d\n", st.Misses)
		fmt.Fprintf(b, "spasmd_store_writes_total %d\n", st.Writes)
		fmt.Fprintf(b, "spasmd_store_errors_total %d\n", st.Errors)
		fmt.Fprintf(b, "spasmd_store_entries %d\n", st.Entries)
		fmt.Fprintf(b, "spasmd_store_bytes %d\n", st.Bytes)
	}
	fmt.Fprintf(b, "spasmd_body_too_large_total %d\n", m.bodyLimited.Load())
	fmt.Fprintf(b, "spasmd_streams_started_total %d\n", m.streamsOpened.Load())
	fmt.Fprintf(b, "spasmd_streams_active %d\n", m.streamsActive.Load())
	fmt.Fprintf(b, "spasmd_stream_events_total %d\n", m.streamEvents.Load())
	tenants := make([]string, 0, len(m.byTenant))
	for t := range m.byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		tc := m.byTenant[t]
		fmt.Fprintf(b, "spasmd_tenant_submitted_total{tenant=%q} %d\n", t, tc.submitted.Load())
		fmt.Fprintf(b, "spasmd_tenant_rejected_total{tenant=%q} %d\n", t, tc.rejected.Load())
	}
	for _, td := range tenantQueued {
		fmt.Fprintf(b, "spasmd_tenant_queued{tenant=%q} %d\n", td.name, td.depth)
	}
	fmt.Fprintf(b, "spasmd_pool_hits_total %d\n", pool.Hits)
	fmt.Fprintf(b, "spasmd_pool_misses_total %d\n", pool.Misses)
	fmt.Fprintf(b, "spasmd_pool_contexts_live %d\n", pool.Live)
	fmt.Fprintf(b, "spasmd_pool_contexts_discarded_total %d\n", pool.Discarded)

	paths := make([]string, 0, len(m.byPath))
	for p := range m.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		h := m.byPath[p]
		fmt.Fprintf(b, "spasmd_http_requests_total{path=%q} %d\n", p, h.n)
		fmt.Fprintf(b, "spasmd_http_request_duration_seconds_sum{path=%q} %.6f\n", p, h.sum)
		for i, bound := range latencyBounds {
			fmt.Fprintf(b, "spasmd_http_request_duration_seconds_bucket{path=%q,le=\"%g\"} %d\n", p, bound, h.counts[i])
		}
		fmt.Fprintf(b, "spasmd_http_request_duration_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", p, h.n)
	}
}

// RenderMetrics returns the full metrics page; it gathers the
// result-tier, queue, and pool numbers under the locks that own them.
func (s *Server) RenderMetrics() string {
	s.mu.Lock()
	depth, tenantQueued := s.fq.size, s.fq.queuedByTenant()
	s.mu.Unlock()
	var b strings.Builder
	s.metrics.render(&b, depth, s.results.counters(), s.pool.Stats(), tenantQueued)
	return b.String()
}
