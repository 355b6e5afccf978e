package probe

// What the package's external tests need beyond the production surface:
// profilers under tight epoch and link caps (production runs always use
// DefaultMaxEpochs and DefaultMaxLinks), and the reference accumulator.

// NewCapped returns a Profiler holding at most maxEpochs epochs and
// maxLinks link samples per epoch (the defaults when below 2 and 1).
func NewCapped(cfg Config, maxEpochs, maxLinks int) *Profiler {
	pr := New(cfg)
	if maxEpochs >= 2 {
		pr.maxEpochs = maxEpochs
	}
	if maxLinks >= 1 {
		pr.maxLinks = maxLinks
	}
	return pr
}

// Reference is the accumulator the Profiler replaced, kept as its oracle.
type Reference = refProfiler

// NewReference returns a reference profiler under the same caps as
// NewCapped.
func NewReference(cfg Config, maxEpochs, maxLinks int) *Reference {
	return newReference(cfg.OnEpoch, maxEpochs, maxLinks)
}
