// Package apps implements the paper's five-application workload suite —
// EP, IS and CG from the NAS parallel benchmarks, CHOLESKY from SPLASH,
// and the classic FFT — as execution-driven programs over the app
// framework.  Each application computes real values in host memory while
// issuing the shared-memory reference pattern of its parallel algorithm,
// so results are verifiable and control flow (lock order, dynamic task
// scheduling) genuinely depends on simulated time.
//
// The applications span the characteristics the paper's analysis relies
// on: EP and FFT are static with regular communication (EP with a much
// higher computation-to-communication ratio); IS is static but
// communication-heavy and uses locks; CG and CHOLESKY have
// data-dependent reference patterns, CHOLESKY with fully dynamic task
// scheduling.
package apps

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"spasm/internal/app"
)

// rngPool recycles the ~5 KB math/rand generators behind the paper
// applications' inputs: one per run in the Setup of IS, FFT and MG, two
// per processor in EP (Body's tally and Check's).  Seeding fully
// determines the source state, so a pooled generator re-seeded with the
// same seed emits the stream a fresh one would.  The synthetic workloads,
// drawing between coroutine switches at thousands of processors, use refGen.
var rngPool = sync.Pool{
	New: func() any { return rand.New(rand.NewSource(0)) },
}

// newRng returns a deterministic PRNG for input generation.
// Pass it to putRng when the stream is done (a defer is fine: the
// generator carries no run state, so returning it mid-unwind is safe).
func newRng(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// putRng returns a generator to the pool.
func putRng(rng *rand.Rand) { rngPool.Put(rng) }

// refGen generates one processor's synthetic reference stream: SplitMix64,
// one word held by value in the stream's app.Cursor.  At large P every
// draw finds what it touches cold, so generator and count share the
// driver's cache line.
type refGen uint64

// newRefGen seeds processor id's stream of run seed in O(1), hashing first
// the one and then the other through the generator itself: both are small
// consecutive integers, and neighbours must land far apart.
func newRefGen(seed int64, id int) refGen {
	g := refGen(seed)
	g = refGen(g.word() + uint64(id))
	return refGen(g.word())
}

func (g *refGen) word() uint64 {
	*g += 0x9e3779b97f4a7c15
	z := uint64(*g)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// below draws uniformly from [0, n), redrawing the words scale rejects.
func (g *refGen) below(n int) int {
	for {
		if v, ok := scale(g.word(), uint64(n)); ok {
			return int(v)
		}
	}
}

// scale maps a uniform word onto [0, n) by multiply-shift, rejecting the
// 2^64 mod n words whose low product is below that remainder: every value
// keeps exactly ⌊2^64/n⌋ words, so no n is biased.
func scale(x, n uint64) (v uint64, ok bool) {
	hi, lo := bits.Mul64(x, n)
	return hi, lo >= n || lo >= -n%n
}

// Instruction-cost model (cycles on the 33 MHz baseline processor).
const (
	// FlopCycles approximates one floating-point multiply-add.
	FlopCycles = 3
	// IntOpCycles approximates one integer ALU operation.
	IntOpCycles = 1
	// SqrtCycles approximates a square root or transcendental.
	SqrtCycles = 20
	// LoopCycles approximates per-iteration loop overhead.
	LoopCycles = 2
)

// Scale selects problem sizes: Tiny keeps unit tests fast, Small is the
// default for regenerating the paper's figures, Medium stresses the
// simulator.
type Scale int

const (
	Tiny Scale = iota
	Small
	Medium
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts "tiny", "small" or "medium" to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return 0, fmt.Errorf("apps: unknown scale %q", s)
}

// Builder constructs a fresh Program instance (programs are single-use:
// one instance per run).
type Builder func(scale Scale, seed int64) app.Program

var registry = map[string]Builder{}

func register(name string, b Builder) { registry[name] = b }

// New builds the named application at the given scale.  A fresh seed
// varies the synthetic inputs; the paper's experiments use seed 1.
func New(name string, scale Scale, seed int64) (app.Program, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return b(scale, seed), nil
}

// Names lists the registered applications in alphabetical order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// extended holds workloads beyond the paper's five-application suite;
// they are kept out of the main registry so suite-wide experiments
// reproduce the paper's exact workload set.
var extended = map[string]Builder{"mg": NewMG}

// Lookup builds a workload by name from either registry (their names are
// disjoint): the paper suite, or an extension workload ("mg", the
// multigrid solver with hierarchical communication, or one of the
// synthetic traffic workloads "uniform", "hotspot" and "neighbor"); a
// name neither knows gets the paper suite's error.  It is the one name
// resolver behind every run entrypoint; New remains for callers that mean
// exactly the paper suite.
func Lookup(name string, scale Scale, seed int64) (app.Program, error) {
	if b, ok := extended[name]; ok {
		return b(scale, seed), nil
	}
	return New(name, scale, seed)
}

// Known reports whether Lookup can build name.
func Known(name string) bool {
	_, suite := registry[name]
	_, ext := extended[name]
	return suite || ext
}

// ExtendedNames lists the extension workloads.
func ExtendedNames() []string {
	names := make([]string, 0, len(extended))
	for n := range extended {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// share splits n items across P processors and returns processor id's
// half-open range; remainders go to the lowest-numbered processors.
func share(n, p, id int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}
