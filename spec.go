package spasm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/probe"
)

// Spec is the canonical description of one simulation run: the
// application, its scale and input seed, and the machine
// characterization it runs on.  A run is a deterministic function of its
// Spec — identical specs produce identical statistics — which is what
// makes specs content-addressable: Key and Hash give every semantically
// identical spec the same identity, so caches, trace/replay tooling and
// the spasmd service can all name runs by content.
//
// The zero value of every optional field means "the paper's default"
// (Topology "full", Seed 1, PortMode Combined, Protocol Berkeley);
// Canonical makes the defaults explicit.  App and P are mandatory.
type Spec struct {
	// App names the application ("cg", "cholesky", "ep", "fft", "is",
	// or an extension workload such as "mg").
	App string
	// Scale selects the problem size (Tiny, Small, Medium).
	Scale Scale
	// Seed varies the synthetic inputs (0 means the paper's seed, 1).
	Seed int64
	// Machine selects the characterization (Ideal, LogP, CLogP, Target).
	Machine Kind
	// Topology names the network ("" means "full"; also "cube", "mesh",
	// and the extension topologies "ring" and "torus").
	Topology string
	// P is the number of processors (mandatory, >= 1).
	P int
	// PortMode selects the LogP g-gap discipline (default Combined).
	PortMode PortMode
	// Protocol selects the coherence protocol (default Berkeley).
	Protocol Protocol
	// Workers requests conservative parallel host execution: the
	// simulation runs its processes on up to Workers OS threads behind an
	// ordered commit gate that keeps results bit-identical to the
	// sequential kernel (0 or 1 means sequential).  Because results are
	// identical by construction, Workers is an execution knob, not part of
	// the run's identity: it is excluded from Key and Hash, and two specs
	// differing only in Workers share one content address.  Only a
	// reference stream on LogP, Flow or Ideal runs parallel; every other
	// spec falls back to the sequential kernel, and Result.Par says why.
	Workers int
}

// Canonical returns the spec with every defaulted field made explicit.
// Two specs that differ only in whether defaults are spelled out have
// the same canonical form, and therefore the same Key and Hash.
func (s Spec) Canonical() Spec {
	if s.Topology == "" {
		s.Topology = "full"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Workers < 0 {
		// Negative worker counts mean the same thing as 0: sequential.
		s.Workers = 0
	}
	return s
}

// Validate checks every enumerated field of the spec against its set of
// known values, reporting the valid choices for any it rejects, and P
// against the limits of the machine, the network it builds and the
// application.
func (s Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("spasm: spec has no application (have %v + %v)", Apps(), ExtendedApps())
	}
	if !apps.Known(s.App) {
		return fmt.Errorf("spasm: unknown application %q (have %v + %v)", s.App, Apps(), ExtendedApps())
	}
	if s.Scale < Tiny || s.Scale > Medium {
		return fmt.Errorf("spasm: unknown scale %v (have tiny, small, medium)", s.Scale)
	}
	if !knownKind(s.Machine) {
		return fmt.Errorf("spasm: unknown machine %v (have %v)", s.Machine, machine.Kinds())
	}
	topo := s.Canonical().Topology
	if !knownTopology(topo) {
		return fmt.Errorf("spasm: unknown topology %q (have %v)", topo, network.Names())
	}
	if s.P < 1 {
		return fmt.Errorf("spasm: spec needs P >= 1, got %d", s.P)
	}
	if max := machine.MaxPFor(s.Machine); s.P > max {
		return fmt.Errorf("spasm: P=%d exceeds the %v machine's limit of %d processors",
			s.P, s.Machine, max)
	}
	if s.Machine != Ideal {
		if err := network.CheckP(s.P); err != nil {
			return fmt.Errorf("spasm: the %v machine builds a %s network: %w", s.Machine, topo, err)
		}
	}
	if max := apps.MaxP(s.App, s.Scale); max > 0 && s.P > max {
		return fmt.Errorf("spasm: P=%d exceeds %s's limit of %d processors at scale %v",
			s.P, s.App, max, s.Scale)
	}
	if s.PortMode != CombinedGap && s.PortMode != PerClassGap {
		return fmt.Errorf("spasm: unknown port mode %v (have combined, per-class)", s.PortMode)
	}
	if s.Protocol < BerkeleyProtocol || s.Protocol > UpdateProtocol {
		return fmt.Errorf("spasm: unknown protocol %v (have berkeley, msi, update)", s.Protocol)
	}
	if s.Workers > MaxWorkers {
		return fmt.Errorf("spasm: %d workers exceeds the limit of %d", s.Workers, MaxWorkers)
	}
	return nil
}

// MaxWorkers bounds Spec.Workers (and the spasmd wire field): worker
// counts beyond any plausible core count are rejected rather than
// silently spawning an absurd goroutine release window.
const MaxWorkers = 256

func knownKind(k Kind) bool {
	for _, v := range machine.Kinds() {
		if v == k {
			return true
		}
	}
	return false
}

func knownTopology(name string) bool {
	for _, n := range network.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Key returns the spec's canonical string form: a fixed field order with
// all defaults made explicit, so any two semantically identical specs —
// however they were constructed — yield byte-identical keys.  It is
// stable across processes and releases of this package, making it safe
// to persist (result caches, trace archives, replay manifests).  The
// constant tail stands where two retired fields printed their zero
// values; dropping it would re-address every stored result.
func (s Spec) Key() string {
	c := s.Canonical()
	return fmt.Sprintf("app=%s scale=%v seed=%d machine=%v topo=%s p=%d port=%v proto=%v adaptive=false esc=0",
		c.App, c.Scale, c.Seed, c.Machine, c.Topology, c.P, c.PortMode, c.Protocol)
}

// Hash returns the hex SHA-256 of Key — the spec's content address.
// The spasmd service uses it as the run ID.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}

// Config returns the machine configuration the spec describes.
func (s Spec) Config() Config {
	c := s.Canonical()
	return Config{
		Kind:     c.Machine,
		Topology: c.Topology,
		P:        c.P,
		PortMode: c.PortMode,
		Protocol: c.Protocol,
	}
}

// RunOptions selects how Execute runs a spec.  The zero value is a
// fresh, unbounded, unprofiled run.
type RunOptions struct {
	// Pool, when non-nil, supplies reusable run contexts (engine, address
	// space, machine — reset in place instead of constructed), so repeated
	// runs of one configuration amortize setup.  The Result's Stats and
	// Phases are safe to keep; its Machine and Space reference pooled
	// state, readable only until the pool reuses the context.  A failed
	// or aborted run discards its context.
	Pool *RunPool
	// Control bounds the run's wall-clock time.
	Control RunControl
	// Profile, when non-nil, attaches a telemetry profiler with these
	// parameters.  Profiling does not perturb the simulated execution,
	// but it hooks the engine clock, which forces the sequential kernel
	// even when the spec asks for workers.
	Profile *ProfileConfig
}

// Execute builds and simulates the run a spec describes.  It is the one
// spec-running implementation — everything content-addressed by Spec.Key,
// the spasmd workers above all, runs through it — and owns the whole
// path: canonicalise, validate, hand Workers to the engine, look up the
// program, attach the optional profiler (docs/INTERNALS.md §14).  The
// Profile is nil unless opt.Profile is set.
//
// Results and profiles are deterministic: the same spec always yields
// identical statistics and a byte-identical encoded profile, pooled or
// not, profiled or not.
func Execute(spec Spec, opt RunOptions) (*Result, *Profile, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	run := app.Options{Pool: opt.Pool, Control: opt.Control, Workers: spec.Workers}
	prog, err := apps.Lookup(spec.App, spec.Scale, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	var pr *probe.Profiler
	if opt.Profile != nil {
		pr = probe.New(*opt.Profile)
		run.Instrument = pr
	}
	res, err := app.Execute(prog, spec.Config(), run)
	if err != nil || pr == nil {
		return res, nil, err
	}
	return res, pr.Profile(), nil
}

// resultOf drops Execute's profile for the unprofiled wrappers.
func resultOf(res *Result, _ *Profile, err error) (*Result, error) { return res, err }

// RunSpecProfiled is Execute with a default-configured profiler.
func RunSpecProfiled(spec Spec) (*Result, *Profile, error) {
	return Execute(spec, RunOptions{Profile: &ProfileConfig{}})
}
