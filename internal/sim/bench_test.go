package sim

import "testing"

// The only two go-test benchmarks outside bench/ (TestOneBenchmarkSystem
// in the root package holds the list): every other cost is a layer
// metric of the benchmark spine, and no layer metric reaches these two
// fast paths.

// BenchmarkEventDispatch measures the self-dispatch fast path: one
// process holding repeatedly pops its own event (schedule + queue pop,
// no coroutine switch).
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(10)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDefer measures the lazy local-clock fast path (no event).
func BenchmarkDefer(b *testing.B) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Defer(10)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
