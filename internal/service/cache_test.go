package service

import (
	"fmt"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU(2, 0)
	for i := 0; i < 3; i++ {
		c.add(&entry{id: fmt.Sprintf("e%d", i)}, time.Time{})
	}
	hits, misses, evictions, entries := c.counters()
	if entries != 2 || evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", entries, evictions)
	}
	if _, ok := c.get("e0", time.Time{}, true); ok {
		t.Fatal("oldest entry e0 survived eviction")
	}
	if _, ok := c.get("e2", time.Time{}, true); !ok {
		t.Fatal("newest entry e2 evicted")
	}
	hits, misses, _, _ = c.counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := newLRU(2, 0)
	c.add(&entry{id: "a"}, time.Time{})
	c.add(&entry{id: "b"}, time.Time{})
	// Touch a so b becomes the eviction victim.
	if _, ok := c.get("a", time.Time{}, false); !ok {
		t.Fatal("a missing")
	}
	c.add(&entry{id: "c"}, time.Time{})
	if _, ok := c.get("a", time.Time{}, false); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok := c.get("b", time.Time{}, false); ok {
		t.Fatal("least recently used entry b survived")
	}
	// Uncounted lookups must not move the counters.
	hits, misses, _, _ := c.counters()
	if hits != 0 || misses != 0 {
		t.Fatalf("uncounted lookups charged: hits=%d misses=%d", hits, misses)
	}
}

func TestLRURefreshDoesNotEvict(t *testing.T) {
	c := newLRU(2, 0)
	c.add(&entry{id: "a"}, time.Time{})
	c.add(&entry{id: "b"}, time.Time{})
	c.add(&entry{id: "a", err: "updated"}, time.Time{})
	if _, _, evictions, _ := c.counters(); evictions != 0 {
		t.Fatalf("refreshing a resident entry evicted %d", evictions)
	}
	e, ok := c.get("a", time.Time{}, false)
	if !ok || e.err != "updated" {
		t.Fatalf("refresh lost: %+v ok=%v", e, ok)
	}
}

// TestNegCacheTTL: in an LRU with expiry, as the negative cache is, an
// entry past its expiry is dropped on sight, not served, and its lookup
// is no hit.
func TestNegCacheTTL(t *testing.T) {
	c := newLRU(4, time.Second)
	now := time.Unix(100, 0)
	c.add(&entry{id: "bad", err: "boom"}, now)
	if e, ok := c.get("bad", now.Add(500*time.Millisecond), true); !ok || e.err != "boom" {
		t.Fatalf("unexpired entry missing: %+v ok=%v", e, ok)
	}
	if _, ok := c.get("bad", now.Add(2*time.Second), true); ok {
		t.Fatal("expired entry served")
	}
	// The expired entry was dropped on sight, not just hidden.
	if _, _, _, entries := c.counters(); entries != 0 {
		t.Fatalf("entries = %d after expiry, want 0", entries)
	}
	if hits, _, _, _ := c.counters(); hits != 1 {
		t.Fatalf("hits = %d, want 1 (expired lookup must not count)", hits)
	}
}

func TestNegCacheBounded(t *testing.T) {
	c := newLRU(2, time.Minute)
	now := time.Unix(100, 0)
	for i := 0; i < 3; i++ {
		c.add(&entry{id: fmt.Sprintf("f%d", i), err: "x"}, now)
	}
	if _, _, _, entries := c.counters(); entries != 2 {
		t.Fatalf("entries = %d, want 2 (bounded)", entries)
	}
	if _, ok := c.get("f0", now, false); ok {
		t.Fatal("oldest failure survived the bound")
	}
	if _, ok := c.get("f2", now, false); !ok {
		t.Fatal("newest failure evicted")
	}
}

func TestNegCacheRefreshRestartsTTL(t *testing.T) {
	c := newLRU(4, time.Second)
	t0 := time.Unix(100, 0)
	c.add(&entry{id: "bad", err: "first"}, t0)
	// Re-adding at t0+900ms restarts the clock; at t0+1.5s the entry is
	// still alive (and carries the refreshed error).
	c.add(&entry{id: "bad", err: "second"}, t0.Add(900*time.Millisecond))
	e, ok := c.get("bad", t0.Add(1500*time.Millisecond), false)
	if !ok || e.err != "second" {
		t.Fatalf("refreshed entry: %+v ok=%v", e, ok)
	}
}
