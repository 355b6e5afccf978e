//go:build !race

package spasm

import (
	"runtime"
	"testing"
)

// TestPooledRunAllocBudget: a pooled rerun of the service's cold shapes
// takes its engine, space, machine and host arrays from its context, so
// what it still allocates per run stays under a ceiling of 1.1x the most
// it was measured at (go1.24, linux/amd64, GOMAXPROCS 1 to 8); before the
// host arena it was 402, 510 and 361 KB.  Each run gets a new seed, as a service request
// does, so no input repeats.  The race detector's instrumentation
// allocates on its own, hence the build tag.
func TestPooledRunAllocBudget(t *testing.T) {
	for _, c := range []struct {
		spec      Spec
		ceilingKB float64
	}{
		{Spec{App: "fft", Scale: Small, Machine: Target, Topology: "mesh", P: 16}, 1.1 * 18.8},
		{Spec{App: "cg", Scale: Small, Machine: CLogP, Topology: "cube", P: 16}, 1.1 * 29.2},
		{Spec{App: "is", Scale: Small, Machine: LogP, Topology: "full", P: 16}, 1.1 * 20.0},
	} {
		pool := NewRunPool(1)
		spec := c.spec
		run := func(seed int64) {
			spec.Seed = seed
			if _, err := RunSpecOn(spec, pool); err != nil {
				t.Fatal(err)
			}
		}
		run(1) // builds the context
		run(2) // grows its arena to the program's demand
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := int64(0); i < runs; i++ {
			run(3 + i)
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s: %.1f KB a pooled run (ceiling %.1f)", spec.App, kb, c.ceilingKB)
		if kb > c.ceilingKB {
			t.Errorf("%s: a pooled run allocates %.1f KB, over its %.1f KB ceiling", spec.App, kb, c.ceilingKB)
		}
	}
}

// TestPooledStreamRunAllocBudget: a pooled rerun of a stream program
// takes its per-processor driver state (feeds and tallies) from its
// context too, and draws every stream by value, so at p1024 it allocates
// its statistics (144 KB of stats.Proc), the event queue's rungs and
// little else: 1.1x the 216.9 KB measured (go1.24, linux/amd64,
// GOMAXPROCS 1 and 2).  With a stream object per processor for the run
// and another for Check, and a feed slab and tallies made per run, it
// cost 360.9 KB.
func TestPooledStreamRunAllocBudget(t *testing.T) {
	const ceilingKB = 1.1 * 216.9
	pool := NewRunPool(1)
	spec := Spec{App: "uniform", Scale: Tiny, Machine: LogP, Topology: "torus", P: 1024}
	run := func(seed int64) {
		spec.Seed = seed
		if _, err := RunSpecOn(spec, pool); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // builds the context
	run(2)
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < runs; i++ {
		run(3 + i)
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("uniform/p1024: %.1f KB a pooled run (ceiling %.1f)", kb, ceilingKB)
	if kb > ceilingKB {
		t.Errorf("uniform/p1024: a pooled run allocates %.1f KB, over its %.1f KB ceiling", kb, ceilingKB)
	}
}
