//go:build !race

// The race detector's instrumentation allocates, so this budget only
// builds without it.

package service

import (
	"context"
	"runtime"
	"testing"
	"time"

	"spasm"
)

// allocBytes returns the fewest bytes f allocated over three calls,
// after one warm-up call.
func allocBytes(f func()) uint64 {
	f()
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestPooledStreamedRunAllocBudget is the service's twin of the probe's
// TestStreamedRunAllocBudget: on the worker's path — a pooled run, the
// probe feeding a stream hub, then the profile encoded for the store —
// it holds what streaming adds above the same pooled run unstreamed to
// 1.1× the figure measured when the probe's accumulators became flat and
// recycled and the hub began rendering frames into chunks (594,736 B on
// linux/amd64), under half of the 1,397,608 B that boxed, marshaled
// events, a channel per append and per-run accumulators cost before.
func TestPooledStreamedRunAllocBudget(t *testing.T) {
	const budget = 594_736 * 11 / 10
	s := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	}()
	spec := spasm.Spec{App: "fft", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 16}.Canonical()
	plain := allocBytes(func() {
		if _, _, err := s.runSafely(spec, nil); err != nil {
			t.Fatal(err)
		}
	})
	streamed := allocBytes(func() {
		hub := newStreamHub()
		_, prof, err := s.runSafely(spec, s.liveProfile(hub))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := encodeProfile(prof); err != nil {
			t.Fatal(err)
		}
	})
	extra := int64(streamed) - int64(plain)
	t.Logf("pooled run %d B, streamed %d B: streaming adds %d B", plain, streamed, extra)
	if extra > budget {
		t.Errorf("streamed pooled run allocates %d B above the plain one; budget %d B", extra, budget)
	}
}
