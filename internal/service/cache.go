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
// content address, whose entries expire ttl after they are added when
// ttl is set.  The result tier keeps two: successes, which never expire,
// and failures, which do (see resultTier).  It is not self-locking:
// every method must be called with the owning resultTier's mutex held.
type lru struct {
	max  int
	ttl  time.Duration // 0: entries never expire
	ll   *list.List    // front = most recently used; values are *slot
	byID map[string]*list.Element

	hits, misses, evictions uint64
}

// slot is one cached entry and the time it expires (zero: never).
type slot struct {
	e   *entry
	exp time.Time
}

func newLRU(max int, ttl time.Duration) *lru {
	return &lru{max: max, ttl: ttl, ll: list.New(), byID: make(map[string]*list.Element)}
}

// get returns the entry for id, promoting it to most recently used; an
// expired entry is dropped on sight and reads as a miss.  When count is
// true the lookup is charged to the hit/miss counters (the submit path);
// status polls pass false so they don't inflate the hit rate.
func (c *lru) get(id string, now time.Time, count bool) (*entry, bool) {
	el, ok := c.byID[id]
	if ok {
		if s := el.Value.(*slot); !s.exp.IsZero() && now.After(s.exp) {
			c.ll.Remove(el)
			delete(c.byID, id)
			ok = false
		}
	}
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
	return el.Value.(*slot).e, true
}

// add inserts (or refreshes, restarting its expiry) an entry and evicts
// past capacity, returning how many entries were evicted.
func (c *lru) add(e *entry, now time.Time) (evicted int) {
	s := &slot{e: e}
	if c.ttl > 0 {
		s.exp = now.Add(c.ttl)
	}
	if el, ok := c.byID[e.id]; ok {
		el.Value = s
		c.ll.MoveToFront(el)
		return 0
	}
	c.byID[e.id] = c.ll.PushFront(s)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byID, oldest.Value.(*slot).e.id)
		c.evictions++
		evicted++
	}
	return evicted
}

// counters reports the cache statistics exported on /metrics.
func (c *lru) counters() (hits, misses, evictions uint64, entries int) {
	return c.hits, c.misses, c.evictions, c.ll.Len()
}
