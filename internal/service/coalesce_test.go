package service_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"spasm"
	"spasm/internal/service"
)

// TestCoalescingUnderConcurrency submits a burst of identical and
// distinct specs from many goroutines against a one-worker server, so
// identical submissions overlap in flight and must coalesce onto one
// job.  Every waiter gets the same result bytes, and the accounting has
// to balance: each submission of a spec is either the one that queued
// the job, a coalesced waiter, or a cache hit.  Run it under -race — the
// coalescing path is Submit's active-map check racing job completion.
func TestCoalescingUnderConcurrency(t *testing.T) {
	svc, _ := newTestService(t, service.Config{Workers: 1, CacheSize: 64})
	ctx := context.Background()

	specs := []spasm.Spec{
		{App: "fft", Scale: spasm.Tiny, Machine: spasm.Target, Topology: "mesh", P: 8},
		{App: "is", Scale: spasm.Tiny, Machine: spasm.CLogP, P: 4},
		{App: "ep", Scale: spasm.Tiny, Machine: spasm.LogP, Topology: "cube", P: 8},
	}
	const perSpec = 8

	var wg sync.WaitGroup
	docs := make([][]byte, len(specs)*perSpec)
	errs := make([]error, len(specs)*perSpec)
	for si, spec := range specs {
		for k := 0; k < perSpec; k++ {
			wg.Add(1)
			go func(slot int, spec spasm.Spec) {
				defer wg.Done()
				j, _, err := svc.Submit(spec)
				if err != nil {
					errs[slot] = err
					return
				}
				if _, err := svc.Wait(ctx, j); err != nil {
					errs[slot] = err
					return
				}
				st, ok := svc.Status(j.ID())
				if !ok {
					errs[slot] = fmt.Errorf("completed job %s not found", j.ID()[:12])
					return
				}
				if st.State != service.StateDone {
					errs[slot] = fmt.Errorf("job finished %s (%s)", st.State, st.Error)
					return
				}
				docs[slot] = st.Result
			}(si*perSpec+k, spec)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	// All waiters on one spec observed byte-identical statistics.
	for si := range specs {
		base := docs[si*perSpec]
		for k := 1; k < perSpec; k++ {
			if !bytes.Equal(docs[si*perSpec+k], base) {
				t.Fatalf("spec %d: waiter %d saw different result bytes", si, k)
			}
		}
	}

	// Accounting: every submission was queued, coalesced, or a cache
	// hit; each spec simulated exactly once.
	page := svc.RenderMetrics()
	queued := metricValue(t, page, "spasmd_jobs_submitted_total")
	coalesced := metricValue(t, page, "spasmd_runs_coalesced_total")
	hits := metricValue(t, page, "spasmd_cache_hits_total")
	done := metricValue(t, page, "spasmd_jobs_done_total")
	if total := queued + coalesced + hits; total != int64(len(specs)*perSpec) {
		t.Fatalf("submissions unaccounted for: queued %d + coalesced %d + hits %d = %d, want %d",
			queued, coalesced, hits, total, len(specs)*perSpec)
	}
	if queued != int64(len(specs)) || done != int64(len(specs)) {
		t.Fatalf("each spec should simulate exactly once: queued %d, done %d, want %d",
			queued, done, len(specs))
	}
	// The worker ran on the context pool; its counters are exported.
	if metricValue(t, page, "spasmd_pool_misses_total")+metricValue(t, page, "spasmd_pool_hits_total") != done {
		t.Fatalf("pool hit+miss should equal runs executed:\n%s", page)
	}
	if metricValue(t, page, "spasmd_pool_contexts_live") < 1 {
		t.Fatalf("no live pool contexts after %d runs", done)
	}
}

// TestProfileSingleflight issues concurrent profile requests for one
// completed run: exactly one computation may happen, the rest must
// coalesce and read the memoized encoding, and everyone gets identical
// bytes.
func TestProfileSingleflight(t *testing.T) {
	svc, _ := newTestService(t, service.Config{Workers: 2, CacheSize: 64})
	ctx := context.Background()

	spec := spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Target, Topology: "mesh", P: 8}
	j, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, j); err != nil {
		t.Fatal(err)
	}

	const waiters = 8
	var wg sync.WaitGroup
	raws := make([][]byte, waiters)
	errs := make([]error, waiters)
	for k := 0; k < waiters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, raw, err := svc.Profile(j.ID(), "")
			raws[k], errs[k] = raw, err
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", k, err)
		}
	}
	for k := 1; k < waiters; k++ {
		if !bytes.Equal(raws[k], raws[0]) {
			t.Fatalf("waiter %d got different profile bytes", k)
		}
	}
	page := svc.RenderMetrics()
	if misses := metricValue(t, page, "spasmd_profile_cache_misses_total"); misses != 1 {
		t.Fatalf("profile computed %d times, want exactly 1 (singleflight)", misses)
	}
	computedPlus := metricValue(t, page, "spasmd_profile_cache_hits_total") +
		metricValue(t, page, "spasmd_profiles_coalesced_total")
	if computedPlus != waiters-1 {
		t.Fatalf("hits + coalesced = %d, want %d", computedPlus, waiters-1)
	}
}

// metricValue extracts one un-labelled counter from a rendered metrics
// page.
func metricValue(t *testing.T, page, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, page)
	return 0
}
