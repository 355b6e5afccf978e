package service

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"spasm/internal/probe"
	"spasm/internal/service/store"
	"spasm/internal/stats"
)

// resultTier is the content-addressed home of finished runs, and the
// only code that touches the three places one can live:
//
//   - the LRU holds successes — the RunDoc bytes served to clients, the
//     decoded statistics for figure assembly, and the run's profile memo
//     once one has been derived;
//   - the durable store (optional) holds the same successes on disk — the
//     RunDoc, the canonical request, Wall-zeroed statistics, and the
//     encoded profile — so a restarted daemon warms instead of
//     re-simulating;
//   - the negative cache, a second LRU, holds failures for a fixed
//     lifetime: a burst of bad specs cannot evict good results, a
//     failed run's status outlives its job, and an operational failure
//     (a run timeout) gets a fresh chance once it ages out.
//
// Every read goes through one order, LRU → store → negative: a success
// anywhere outranks a remembered failure, so an id that an earlier
// process computed and this one timed out on is "done" on every
// endpoint.  Entries are immutable once published (the profile memo
// replaces the entry rather than mutating it), so a returned *entry is
// safe to read without any lock.  The tier locks itself; callers holding
// the Server mutex may call in, never the reverse.
type resultTier struct {
	store *store.Store // nil without a durable tier

	mu    sync.Mutex
	cache *lru // successes; entries never expire
	neg   *lru // failures, for negativeTTL each
}

// The negative cache's bounds: failures are deterministic, so a few are
// worth remembering, but not forever — an operator may raise the run
// deadline a timeout failed under.
const (
	negativeCacheSize = 64
	negativeTTL       = 30 * time.Second
)

func newResultTier(cfg Config) *resultTier {
	return &resultTier{
		store: cfg.Store,
		cache: newLRU(cfg.CacheSize, 0),
		neg:   newLRU(negativeCacheSize, negativeTTL),
	}
}

// lookup finds a finished run.  A store hit is promoted into the LRU and
// serves exactly the bytes the writing process stored.  When count is
// true the lookup is charged to the hit/miss counters (submissions);
// polls, streams and profile requests pass false so they don't inflate
// the hit rate.
func (t *resultTier) lookup(id string, count bool) (*entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookupLocked(id, count)
}

func (t *resultTier) lookupLocked(id string, count bool) (*entry, bool) {
	now := time.Now()
	if e, ok := t.cache.get(id, now, count); ok {
		return e, true
	}
	if e, ok := t.storeGet(id); ok {
		t.cache.add(e, now)
		return e, true
	}
	return t.neg.get(id, now, count)
}

// publish files a finished run: failures into the negative cache,
// successes to disk first and then into the LRU — persisting before the
// result becomes visible means a client that has seen "done" finds the
// record after an immediate restart.  The disk write (fsync is the slow
// part) happens outside the tier lock.
func (t *resultTier) publish(e *entry) {
	if e.err != "" {
		t.mu.Lock()
		t.neg.add(e, time.Now())
		t.mu.Unlock()
		return
	}
	t.storePut(e)
	t.mu.Lock()
	t.cache.add(e, time.Now())
	t.mu.Unlock()
}

// profile is lookup for the profile endpoint: a success with no profile
// memo is warmed from the store's encoded profile (written by a past
// process, or by this one before an eviction), turning the request into
// a hit instead of a re-run.
func (t *resultTier) profile(id string) (*entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.lookupLocked(id, false)
	if ok && e.err == "" && e.prof == nil && t.store != nil {
		if raw, hit := t.store.GetProfile(id); hit {
			if prof, err := probe.Decode(bytes.NewReader(raw)); err == nil {
				e = t.memoLocked(e, prof, raw)
			}
		}
	}
	return e, ok
}

// memoize records a freshly derived profile: on disk, and on the run's
// LRU entry if it is still resident (the memo ages out with its result).
func (t *resultTier) memoize(id string, prof *probe.Profile, raw []byte) {
	if t.store != nil {
		t.store.PutProfile(id, raw)
	}
	t.mu.Lock()
	if e, ok := t.cache.get(id, time.Now(), false); ok && e.prof == nil {
		t.memoLocked(e, prof, raw)
	}
	t.mu.Unlock()
}

// memoLocked replaces e in the LRU with a copy carrying the profile.
func (t *resultTier) memoLocked(e *entry, prof *probe.Profile, raw []byte) *entry {
	c := *e
	c.prof, c.profBytes = prof, raw
	t.cache.add(&c, time.Now())
	return &c
}

// storeGet decodes id's durable record into an entry.
func (t *resultTier) storeGet(id string) (*entry, bool) {
	if t.store == nil {
		return nil, false
	}
	rec, ok := t.store.Get(id)
	if !ok {
		return nil, false
	}
	var req RunRequest
	if err := json.Unmarshal(rec.Spec, &req); err != nil {
		return nil, false
	}
	e := &entry{id: id, req: req, doc: rec.Doc}
	if len(rec.Stats) > 0 {
		var st stats.Run
		if err := json.Unmarshal(rec.Stats, &st); err == nil {
			e.stats = &st
		}
	}
	return e, true
}

// storePut persists a successful run record (and its profile, when one
// was materialized).  Store failures never fail the job: the result
// stays served from memory and the store's own error counter records the
// miss of durability.
func (t *resultTier) storePut(e *entry) {
	if t.store == nil || len(e.doc) == 0 {
		return
	}
	rec := store.Record{ID: e.id, Doc: e.doc}
	if specJSON, err := json.Marshal(e.req); err == nil {
		rec.Spec = specJSON
	}
	if e.stats != nil {
		// Wall is host wall-clock — the one non-deterministic field — so
		// it is zeroed in the durable record to keep it spec-pure.
		st := *e.stats
		st.Wall = 0
		if stJSON, err := json.Marshal(&st); err == nil {
			rec.Stats = stJSON
		}
	}
	t.store.Put(rec)
	if len(e.profBytes) > 0 {
		t.store.PutProfile(e.id, e.profBytes)
	}
}

// tierCounters is the tier's /metrics read-out.
type tierCounters struct {
	hits, misses, evictions uint64
	entries                 int
	negHits                 uint64
	negEntries              int
	store                   *store.Stats // nil when the daemon runs memory-only
}

func (t *resultTier) counters() tierCounters {
	var c tierCounters
	t.mu.Lock()
	c.hits, c.misses, c.evictions, c.entries = t.cache.counters()
	c.negHits, _, _, c.negEntries = t.neg.counters()
	t.mu.Unlock()
	if t.store != nil {
		ss := t.store.Stats()
		c.store = &ss
	}
	return c
}
