package service

import (
	"errors"
	"slices"
	"sort"
)

// DefaultTenant is the bucket for requests that carry no tenant header.
const DefaultTenant = "default"

// ErrTenantQuota is returned when a submission would push its tenant
// past a per-tenant admission quota (outstanding runs or queued bytes).
// Unlike ErrQueueFull it indicts one tenant, not the service: other
// tenants keep submitting normally, and the rejected tenant is admitted
// again as soon as its own work drains.
var ErrTenantQuota = errors.New("service: tenant over admission quota")

// maxTenantBuckets caps the distinct tenant buckets tracked; further
// tenant names share one overflow bucket.
const maxTenantBuckets = 256

// validTenant reports whether name is one the HTTP edge routes to: 1 to
// 64 characters of a filesystem- and metrics-label-safe alphabet.
func validTenant(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// tenantQueue is one tenant's admission state: its FIFO of pending jobs
// plus the accounting the quotas need.
type tenantQueue struct {
	name string
	jobs []*Job
	// queuedBytes is the request-body weight of the tenant's pending
	// jobs (charged at enqueue, credited at dispatch or cancellation).
	queuedBytes int64
	// outstanding counts the tenant's admitted-but-unfinished jobs —
	// pending and running — the unit the run quota bounds.
	outstanding int
}

// fairQueue is the pending-job queue: per-tenant FIFOs served round
// robin, bounded globally by depth and per-tenant by the run/byte
// quotas.  Like the caches it is not self-locking — every method runs
// under the owning Server's mutex.
//
// The scheduling invariant: over any interval in which two tenants both
// stay backlogged, each is dispatched the same number of jobs (within
// one), regardless of how many requests either submits.  A tenant whose
// queue empties leaves the ring and rejoins at its tail, so it cannot
// claim "catch-up" service for time it was absent.
type fairQueue struct {
	depth      int
	quotaRuns  int
	quotaBytes int64
	maxTenants int

	tenants map[string]*tenantQueue
	// ring holds the tenants with pending jobs in the order they are
	// served: pop takes the head's oldest job and requeues the head at
	// the tail while it has more.
	ring []*tenantQueue
	size int
}

func newFairQueue(cfg Config) *fairQueue {
	return &fairQueue{
		depth:      cfg.QueueDepth,
		quotaRuns:  cfg.TenantQuotaRuns,
		quotaBytes: cfg.TenantQuotaBytes,
		maxTenants: maxTenantBuckets,
		tenants:    make(map[string]*tenantQueue),
	}
}

// bucket returns (creating if needed) the queue for tenant.  Beyond
// maxTenants distinct names, further tenants share one overflow bucket:
// an attacker minting a tenant per request gets one tenant's share, not
// an unbounded map.
func (q *fairQueue) bucket(tenant string) *tenantQueue {
	if t, ok := q.tenants[tenant]; ok {
		return t
	}
	if len(q.tenants) >= q.maxTenants {
		if t, ok := q.tenants[overflowTenant]; ok {
			return t
		}
		tenant = overflowTenant
	}
	t := &tenantQueue{name: tenant}
	q.tenants[tenant] = t
	return t
}

// overflowTenant aggregates tenants past the maxTenants cap.
const overflowTenant = "~overflow"

// push admits j (whose tenant and bytes fields are set) or rejects it
// with ErrQueueFull / ErrTenantQuota.
func (q *fairQueue) push(j *Job) error {
	if q.size >= q.depth {
		return ErrQueueFull
	}
	t := q.bucket(j.tenant)
	j.tenant = t.name // overflow rewrite, so later accounting finds the bucket
	if q.quotaRuns > 0 && t.outstanding >= q.quotaRuns {
		return ErrTenantQuota
	}
	if q.quotaBytes > 0 && j.bytes > 0 && t.queuedBytes+j.bytes > q.quotaBytes {
		return ErrTenantQuota
	}
	if len(t.jobs) == 0 {
		q.ring = append(q.ring, t)
	}
	t.jobs = append(t.jobs, j)
	t.queuedBytes += j.bytes
	t.outstanding++
	q.size++
	return nil
}

// pop dispatches the head tenant's oldest job, or nil when nothing is
// pending.
func (q *fairQueue) pop() *Job {
	if len(q.ring) == 0 {
		return nil
	}
	t := q.ring[0]
	q.ring = q.ring[1:]
	j := t.jobs[0]
	t.jobs = t.jobs[1:]
	if len(t.jobs) == 0 {
		t.jobs = nil
	} else {
		q.ring = append(q.ring, t)
	}
	t.queuedBytes -= j.bytes
	q.size--
	return j
}

// remove deletes a still-pending job (the waiter-cancellation path),
// crediting its queue accounting as if it had never been admitted.
func (q *fairQueue) remove(j *Job) {
	t, ok := q.tenants[j.tenant]
	if !ok {
		return
	}
	for i, pending := range t.jobs {
		if pending == j {
			t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
			t.queuedBytes -= j.bytes
			t.outstanding--
			q.size--
			if len(t.jobs) == 0 {
				q.ring = slices.DeleteFunc(q.ring, func(r *tenantQueue) bool { return r == t })
			}
			return
		}
	}
}

// jobDone credits a dispatched job's completion against its tenant's
// run quota.
func (q *fairQueue) jobDone(j *Job) {
	if t, ok := q.tenants[j.tenant]; ok {
		t.outstanding--
	}
}

// queuedByTenant snapshots each tenant's pending-job count for the
// metrics page (tenants with no queued work are omitted), sorted by
// name.
func (q *fairQueue) queuedByTenant() []tenantDepth {
	var out []tenantDepth
	for name, t := range q.tenants {
		if len(t.jobs) > 0 {
			out = append(out, tenantDepth{name, len(t.jobs)})
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].name < out[k].name })
	return out
}

type tenantDepth struct {
	name  string
	depth int
}
