package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"spasm"
	"spasm/internal/faults"
)

func fqJob(tenant string, n int, size int64) *Job {
	return &Job{id: fmt.Sprintf("%s-%d", tenant, n), tenant: tenant, bytes: size}
}

// TestFairQueueStride: with both tenants backlogged, dispatches split
// equally, regardless of submission counts.
func TestFairQueueStride(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100})
	for i := 0; i < 30; i++ {
		if err := fq.push(fqJob("heavy", i, 0)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := fq.push(fqJob("light", i, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := map[string]int{}
	for i := 0; i < 30; i++ {
		j := fq.pop()
		if j == nil {
			t.Fatalf("pop %d: empty queue with %d jobs left", i, fq.size)
		}
		got[j.tenant]++
	}
	if got["heavy"] != 15 || got["light"] != 15 {
		t.Fatalf("30 dispatches split %v, want heavy=15 light=15", got)
	}
}

// TestFairQueueRejoinNoCatchUp: a tenant that sat idle while another
// tenant consumed the queue does not get retroactive credit — after
// rejoining it shares equally, it does not monopolize.
func TestFairQueueRejoinNoCatchUp(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100})
	for i := 0; i < 20; i++ {
		fq.push(fqJob("busy", i, 0))
	}
	for i := 0; i < 10; i++ {
		fq.pop()
	}
	// "late" joins now; the next dispatches alternate
	// instead of draining late's backlog first.
	for i := 0; i < 4; i++ {
		fq.push(fqJob("late", i, 0))
	}
	got := map[string]int{}
	for i := 0; i < 8; i++ {
		got[fq.pop().tenant]++
	}
	if got["late"] != 4 || got["busy"] != 4 {
		t.Fatalf("8 dispatches after rejoin split %v, want 4/4", got)
	}
}

// TestFairQueueArrivalOrder: backlogged tenants take turns in the order
// they arrived, not by name, and a tenant that remove empties rejoins
// behind the tenants already waiting.
func TestFairQueueArrivalOrder(t *testing.T) {
	pops := func(fq *fairQueue, n int) []string {
		var got []string
		for i := 0; i < n; i++ {
			got = append(got, fq.pop().id)
		}
		return got
	}
	fq := newFairQueue(Config{QueueDepth: 100})
	for _, j := range []*Job{fqJob("zeta", 0, 0), fqJob("zeta", 1, 0), fqJob("alpha", 0, 0), fqJob("alpha", 1, 0)} {
		fq.push(j)
	}
	if got, want := fmt.Sprint(pops(fq, 4)), "[zeta-0 alpha-0 zeta-1 alpha-1]"; got != want {
		t.Fatalf("dispatch order %s, want %s", got, want)
	}

	gone := fqJob("alpha", 2, 0)
	fq.push(gone)
	fq.push(fqJob("beta", 0, 0))
	fq.remove(gone)
	fq.push(fqJob("alpha", 3, 0))
	if got, want := fmt.Sprint(pops(fq, 2)), "[beta-0 alpha-3]"; got != want {
		t.Fatalf("after remove emptied alpha, dispatch order %s, want %s", got, want)
	}
}

func TestFairQueueQuotas(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100,
		TenantQuotaRuns: 2, TenantQuotaBytes: 100})
	if err := fq.push(fqJob("a", 0, 60)); err != nil {
		t.Fatal(err)
	}
	if err := fq.push(fqJob("a", 1, 60)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("byte-quota push: %v, want ErrTenantQuota", err)
	}
	if err := fq.push(fqJob("a", 2, 30)); err != nil {
		t.Fatal(err)
	}
	// Run quota (2) is now the binding constraint, even for a tiny job.
	if err := fq.push(fqJob("a", 3, 1)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("run-quota push: %v, want ErrTenantQuota", err)
	}
	// Other tenants are unaffected by a's saturation.
	if err := fq.push(fqJob("b", 0, 60)); err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	// Dispatch frees bytes immediately, runs only at completion.
	j := fq.pop()
	if err := fq.push(fqJob(j.tenant, 4, 90)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("post-dispatch push: %v, want ErrTenantQuota (outstanding)", err)
	}
	fq.jobDone(j)
	// 30 bytes are still queued (job a-2), so 60 more fits the 100-byte
	// quota now that a run slot freed up.
	if err := fq.push(fqJob(j.tenant, 5, 60)); err != nil {
		t.Fatalf("post-completion push: %v", err)
	}
}

// TestFairQueueOverflowBucket: past maxTenants distinct names (two here,
// not maxTenantBuckets), new tenants share one bucket — the tenant map
// cannot grow without bound.
func TestFairQueueOverflowBucket(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100})
	fq.maxTenants = 2
	fq.push(fqJob("a", 0, 0))
	fq.push(fqJob("b", 0, 0))
	j := fqJob("mallory-1", 0, 0)
	if err := fq.push(j); err != nil {
		t.Fatal(err)
	}
	if j.tenant != overflowTenant {
		t.Fatalf("third tenant bucketed as %q, want %q", j.tenant, overflowTenant)
	}
	fq.push(fqJob("mallory-2", 0, 0))
	if len(fq.tenants) != 3 { // a, b, overflow
		t.Fatalf("tenant map has %d buckets, want 3", len(fq.tenants))
	}
	// remove (the cancellation path) finds the job through the rewritten
	// tenant name.
	before := fq.size
	fq.remove(j)
	if fq.size != before-1 {
		t.Fatalf("remove left size %d, want %d", fq.size, before-1)
	}
}

// TestProfileFlightSurvivesEviction pins the singleflight regression:
// a Profile request joining an in-flight derivation must get the
// derivation's result even when the LRU evicted the run's cache entry
// mid-derivation (previously it re-checked the cache after the flight
// closed and reported ErrUnknownRun despite a successful derivation).
func TestProfileFlightSurvivesEviction(t *testing.T) {
	defer faults.Reset()
	svc := New(Config{Workers: 2, CacheSize: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer svc.Shutdown(ctx)

	spec := spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Target, Topology: "mesh", P: 4}
	j, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	id := j.id

	// Hold the derivation inside its simulation, then evict the entry
	// under it.
	entered, gate := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	faults.Set(faults.RunExec, func() error {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return nil
	})
	type answer struct {
		raw []byte
		err error
	}
	got := make(chan answer, 2)
	ask := func() {
		_, raw, err := svc.Profile(id, "")
		got <- answer{raw, err}
	}
	go ask()
	<-entered
	evict, _, err := svc.Submit(spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Target, Topology: "mesh", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-evict.done
	if _, stillCached := svc.results.lookup(id, false); stillCached {
		t.Fatal("entry not evicted; test setup needs a smaller cache")
	}

	// The second request joins the derivation (the coalesced counter
	// ticks just before it blocks); then the derivation finishes.
	go ask()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if svc.metrics.profCoalesced.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Profile request never joined the in-flight derivation")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	a, b := <-got, <-got
	if a.err != nil || b.err != nil {
		t.Fatalf("requests across an eviction: %v / %v, want the derivation's result", a.err, b.err)
	}
	if len(a.raw) == 0 || !bytes.Equal(a.raw, b.raw) {
		t.Fatalf("requests got %d and %d bytes, want the same derived profile", len(a.raw), len(b.raw))
	}
	if coalesced := svc.metrics.profCoalesced.Load(); coalesced != 1 {
		t.Fatalf("profCoalesced = %d, want 1", coalesced)
	}
}

// TestProfileDerivationsShareWorkers: deriving a missing profile is a
// simulation, so it runs on the worker pool like every other: with one
// worker, concurrent profile requests for distinct cached runs simulate
// one at a time (they once ran on their HTTP handlers, all at once).
func TestProfileDerivationsShareWorkers(t *testing.T) {
	defer faults.Reset()
	svc := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer svc.Shutdown(ctx)

	var ids []string
	for _, p := range []int{2, 4, 8} {
		j, _, err := svc.Submit(spasm.Spec{App: "ep", Scale: spasm.Tiny, Machine: spasm.CLogP, Topology: "full", P: p})
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		ids = append(ids, j.id)
	}

	var inFlight, most atomic.Int32
	faults.Set(faults.RunExec, func() error {
		n := inFlight.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	errs := make(chan error, len(ids))
	for _, id := range ids {
		go func(id string) {
			_, _, err := svc.Profile(id, "team-a")
			errs <- err
		}(id)
	}
	for range ids {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m := most.Load(); m > 1 {
		t.Errorf("%d profile derivations simulated at once on a 1-worker server", m)
	}
}
