package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"spasm"
)

func fqJob(tenant string, n int, size int64) *Job {
	return &Job{id: fmt.Sprintf("%s-%d", tenant, n), tenant: tenant, bytes: size}
}

// TestFairQueueStride: with both tenants backlogged, dispatches follow
// the configured weights exactly (2:1 here), regardless of submission
// counts.
func TestFairQueueStride(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100, MaxTenants: 8,
		TenantWeights: map[string]int{"heavy": 2, "light": 1}})
	for i := 0; i < 30; i++ {
		if err := fq.push(fqJob("heavy", i, 0)); err != nil {
			t.Fatal(err)
		}
		if err := fq.push(fqJob("light", i, 0)); err != nil {
			t.Fatal(err)
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
	if got["heavy"] != 20 || got["light"] != 10 {
		t.Fatalf("30 dispatches split %v, want heavy=20 light=10", got)
	}
}

// TestFairQueueCapsWeight: a weight above strideUnit would make its
// stride 0, and a backlogged tenant whose pass never advances wins every
// dispatch; the cap keeps it advancing, so the other tenant is served.
func TestFairQueueCapsWeight(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100, MaxTenants: 8,
		TenantWeights: map[string]int{"alice": 1 << 21}})
	for i := 0; i < 3; i++ {
		fq.push(fqJob("alice", i, 0))
		fq.push(fqJob("bob", i, 0))
	}
	got := map[string]int{}
	for i := 0; i < 3; i++ {
		got[fq.pop().tenant]++
	}
	if got["bob"] == 0 {
		t.Fatalf("3 dispatches split %v: bob was never dispatched", got)
	}
}

// TestParseTenantWeights: -tenant-weights takes only entries that can
// take effect: names a request can carry, weights the scheduler can
// honour.
func TestParseTenantWeights(t *testing.T) {
	got, err := ParseTenantWeights("alice=4, bob=1,c-d_e=1048576")
	if want := map[string]int{"alice": 4, "bob": 1, "c-d_e": strideUnit}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("valid weights parsed to %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{
		"team.a=4",                          // tenantOf never routes a dot
		strings.Repeat("a", 65) + "=4",      // nor a name over 64 characters
		"alice =4",                          // nor "alice "
		"alice=2097152",                     // a zero stride
		"alice=0", "alice=x", "alice", "=4", // malformed
	} {
		if _, err := ParseTenantWeights(bad); err == nil {
			t.Errorf("ParseTenantWeights(%q) accepted", bad)
		}
	}
}

// TestFairQueueRejoinNoCatchUp: a tenant that sat idle while another
// tenant consumed the queue does not get retroactive credit — after
// rejoining it shares per its weight, it does not monopolize.
func TestFairQueueRejoinNoCatchUp(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100, MaxTenants: 8})
	for i := 0; i < 20; i++ {
		fq.push(fqJob("busy", i, 0))
	}
	for i := 0; i < 10; i++ {
		fq.pop()
	}
	// "late" joins now; with equal weights the next dispatches alternate
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

func TestFairQueueQuotas(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100, MaxTenants: 8,
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

// TestFairQueueOverflowBucket: past MaxTenants distinct names, new
// tenants share one bucket — the tenant map cannot grow without bound.
func TestFairQueueOverflowBucket(t *testing.T) {
	fq := newFairQueue(Config{QueueDepth: 100, MaxTenants: 2})
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
// a Profile request joining an in-flight computation must get the
// flight's result even when the LRU evicted the run's cache entry
// mid-derivation (previously it re-checked the cache after the flight
// closed and reported ErrUnknownRun despite a successful derivation).
func TestProfileFlightSurvivesEviction(t *testing.T) {
	svc := New(Config{Workers: 1, CacheSize: 1})
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

	// Simulate a leader mid-derivation, then evict the entry under it.
	fl := &profFlight{done: make(chan struct{})}
	svc.mu.Lock()
	svc.profFlight[id] = fl
	svc.mu.Unlock()
	evict, _, err := svc.Submit(spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Target, Topology: "mesh", P: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-evict.done
	if _, stillCached := svc.results.lookup(id, false); stillCached {
		t.Fatal("entry not evicted; test setup needs a smaller cache")
	}

	got := make(chan error, 1)
	var gotRaw []byte
	go func() {
		_, raw, err := svc.Profile(id)
		gotRaw = raw
		got <- err
	}()

	// Wait until the request has actually joined the flight (the
	// coalesced counter ticks just before it blocks), then resolve the
	// flight the way a leader does and check the waiter received it.
	for deadline := time.Now().Add(5 * time.Second); ; {
		svc.metrics.mu.Lock()
		joined := svc.metrics.profCoalesced > 0
		svc.metrics.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Profile request never joined the in-flight computation")
		}
		time.Sleep(time.Millisecond)
	}
	want := []byte("profile-bytes")
	fl.raw = want
	svc.mu.Lock()
	delete(svc.profFlight, id)
	svc.mu.Unlock()
	close(fl.done)
	if err := <-got; err != nil {
		t.Fatalf("waiter after eviction: %v, want flight result", err)
	}
	if !bytes.Equal(gotRaw, want) {
		t.Fatalf("waiter got %q, want the flight's bytes", gotRaw)
	}
	svc.metrics.mu.Lock()
	coalesced := svc.metrics.profCoalesced
	svc.metrics.mu.Unlock()
	if coalesced != 1 {
		t.Fatalf("profCoalesced = %d, want 1", coalesced)
	}
}
