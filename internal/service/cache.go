package service

import (
	"container/list"
	"encoding/json"
	"time"

	"spasm/internal/probe"
	"spasm/internal/stats"
)

// entry is one completed run in the content-addressed result cache: the
// canonical request, the deterministic JSON document served to clients
// (byte-identical on every hit), the decoded statistics for in-process
// consumers (figure assembly), and the error string for failed runs —
// failures are deterministic too, so they are cached alongside results.
//
// The run's time-resolved profile is materialized lazily: the first
// GET /v1/runs/{id}/profile re-executes the spec with the probe
// attached (profiles are deterministic, so this is safe) and memoizes
// the decoded profile plus its canonical encoding here, where it ages
// out together with the result it belongs to.  A published entry is
// never mutated: the memo replaces it with a copy (resultTier.memoize).
type entry struct {
	id    string
	req   RunRequest
	doc   json.RawMessage
	stats *stats.Run
	err   string
	// canceled marks a job dropped before execution because every
	// waiter abandoned it; canceled entries are never cached (the
	// outcome reflects client behaviour, not the spec).
	canceled bool

	prof      *probe.Profile
	profBytes []byte
}

// state is the terminal job state the entry records.
func (e *entry) state() State {
	switch {
	case e.canceled:
		return StateCanceled
	case e.err != "":
		return StateFailed
	}
	return StateDone
}

// lru is a fixed-capacity least-recently-used cache of entries keyed by
// content address.  It is not self-locking: every method must be called
// with the owning resultTier's mutex held.
type lru struct {
	max  int
	ll   *list.List // front = most recently used; values are *entry
	byID map[string]*list.Element

	hits, misses, evictions uint64
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), byID: make(map[string]*list.Element)}
}

// get returns the entry for id, promoting it to most recently used.
// When count is true the lookup is charged to the hit/miss counters
// (the submit path); status polls pass false so they don't inflate the
// hit rate.
func (c *lru) get(id string, count bool) (*entry, bool) {
	el, ok := c.byID[id]
	if !ok {
		if count {
			c.misses++
		}
		return nil, false
	}
	if count {
		c.hits++
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// add inserts (or refreshes) an entry and evicts past capacity,
// returning how many entries were evicted.
func (c *lru) add(e *entry) (evicted int) {
	if el, ok := c.byID[e.id]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return 0
	}
	c.byID[e.id] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byID, oldest.Value.(*entry).id)
		c.evictions++
		evicted++
	}
	return evicted
}

// counters reports the cache statistics exported on /metrics.
func (c *lru) counters() (hits, misses, evictions uint64, entries int) {
	return c.hits, c.misses, c.evictions, c.ll.Len()
}

// negCache is the bounded, TTL'd side cache for failed runs.  Failures
// are deterministic (a bad spec fails the same way every time), so they
// are worth remembering — but they must not displace successful results
// from the main LRU, and a failure caused by an operational limit (a
// run timeout under a deadline the operator later raises) must not be
// remembered forever.  Hence: a small separate capacity and an expiry.
// Like lru it is not self-locking; every method runs under the owning
// resultTier's mutex.
type negCache struct {
	max  int
	ttl  time.Duration
	ll   *list.List // front = newest; values are *negEntry
	byID map[string]*list.Element

	hits uint64
}

type negEntry struct {
	e   *entry
	exp time.Time
}

func newNegCache(max int, ttl time.Duration) *negCache {
	return &negCache{max: max, ttl: ttl, ll: list.New(), byID: make(map[string]*list.Element)}
}

// get returns the failed entry for id if present and unexpired (expired
// entries are dropped on sight).  When count is true the lookup charges
// the negative-hit counter (the submit path); status polls pass false.
func (c *negCache) get(id string, now time.Time, count bool) (*entry, bool) {
	el, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	ne := el.Value.(*negEntry)
	if now.After(ne.exp) {
		c.ll.Remove(el)
		delete(c.byID, id)
		return nil, false
	}
	if count {
		c.hits++
	}
	return ne.e, true
}

// add inserts (or refreshes) a failed entry, restarting its TTL, and
// evicts the oldest entries past capacity.
func (c *negCache) add(e *entry, now time.Time) {
	if el, ok := c.byID[e.id]; ok {
		el.Value = &negEntry{e: e, exp: now.Add(c.ttl)}
		c.ll.MoveToFront(el)
		return
	}
	c.byID[e.id] = c.ll.PushFront(&negEntry{e: e, exp: now.Add(c.ttl)})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byID, oldest.Value.(*negEntry).e.id)
	}
}

// counters reports the negative-cache statistics exported on /metrics.
func (c *negCache) counters() (hits uint64, entries int) {
	return c.hits, c.ll.Len()
}
