//go:build !race

// The race detector's instrumentation allocates, so these budgets only
// build without it.

package probe_test

import (
	"bytes"
	"runtime"
	"testing"

	"spasm"
	"spasm/internal/probe"
)

// TestEncodeAllocs holds Profile.Encode to a constant number of
// allocations (the buffered writer's), however many varints it writes.
func TestEncodeAllocs(t *testing.T) {
	_, p, err := spasm.RunSpecProfiled(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if _, err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Encode of a %d-byte profile made %v allocations; want at most 4", buf.Len(), allocs)
	}
}

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

// TestStreamedRunAllocBudget holds what a streamed run (live OnEpoch
// hook, then the encoding the service stores) allocates above the same
// run unprofiled.  The budget is 1.1× the figure measured when the
// probe's accumulators became flat and recycled across runs (465,032 B
// on linux/amd64): the finished Profile and its encoding, where the
// per-epoch link indexes, grown epoch array and per-run slabs cost
// 1,175,656 B before.
func TestStreamedRunAllocBudget(t *testing.T) {
	const budget = 465_032 * 11 / 10
	spec := spasm.Spec{App: "fft", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 16}
	run := func(cfg *spasm.ProfileConfig) *probe.Profile {
		_, prof, err := spasm.Execute(spec, spasm.RunOptions{Profile: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	plain := allocBytes(func() { run(nil) })
	streamed := allocBytes(func() {
		prof := run(&spasm.ProfileConfig{OnEpoch: func(spasm.ProfileEpochEvent) {}})
		buf := bytes.NewBuffer(make([]byte, 0, prof.EncodedLen()))
		if _, err := prof.Encode(buf); err != nil {
			t.Fatal(err)
		}
	})
	extra := int64(streamed) - int64(plain)
	t.Logf("plain run %d B, streamed %d B: the probe adds %d B", plain, streamed, extra)
	if extra > budget {
		t.Errorf("streamed run allocates %d B above the plain run; budget %d B", extra, budget)
	}
}
