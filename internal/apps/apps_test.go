package apps

import (
	"fmt"
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

// run executes the named app at Tiny scale and fails the test on any
// error (including the app's own result Check).
func run(t *testing.T, name string, kind machine.Kind, topo string, p int) *stats.Run {
	t.Helper()
	prog, err := New(name, Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Execute(prog, machine.Config{Kind: kind, Topology: topo, P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"cg", "cholesky", "ep", "fft", "is"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Names() = %v, want %v", names, want)
	}
	if _, err := New("nope", Tiny, 1); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestScaleParsing(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Medium} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale name")
	}
}

func TestShareCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 100} {
		for _, p := range []int{1, 2, 4, 8, 64} {
			covered := 0
			prevHi := 0
			for id := 0; id < p; id++ {
				lo, hi := share(n, p, id)
				if lo != prevHi {
					t.Fatalf("share(%d,%d,%d) gap: lo=%d prevHi=%d", n, p, id, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("share(%d,%d) covers %d", n, p, covered)
			}
		}
	}
}

// TestAllAppsAllMachines runs the full application suite on every
// machine kind — the execution-driven equivalence check: results must be
// correct regardless of the architectural model.
func TestAllAppsAllMachines(t *testing.T) {
	for _, name := range Names() {
		for _, kind := range machine.Kinds() {
			name, kind := name, kind
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				run(t, name, kind, "full", 4)
			})
		}
	}
}

// TestAllAppsAllTopologies exercises the target machine's three networks.
func TestAllAppsAllTopologies(t *testing.T) {
	for _, name := range Names() {
		for _, topo := range []string{"full", "cube", "mesh"} {
			name, topo := name, topo
			t.Run(fmt.Sprintf("%s/%s", name, topo), func(t *testing.T) {
				run(t, name, machine.Target, topo, 8)
			})
		}
	}
}

func TestAppsSingleProcessor(t *testing.T) {
	// Degenerate single-processor runs must still be correct.
	for _, name := range Names() {
		if name == "fft" {
			// fft requires R >= P which holds; included below.
		}
		run(t, name, machine.Ideal, "full", 1)
	}
}

func TestAppsDeterministicAcrossRuns(t *testing.T) {
	for _, name := range Names() {
		a := run(t, name, machine.Target, "mesh", 4)
		b := run(t, name, machine.Target, "mesh", 4)
		if a.Total != b.Total || a.Messages() != b.Messages() {
			t.Errorf("%s nondeterministic: %v vs %v / %d vs %d msgs",
				name, a.Total, b.Total, a.Messages(), b.Messages())
		}
	}
}

// TestStaticAppsSameMissesAcrossNetworks: for the static applications the
// number of network-visible references on the CLogP machine is a
// property of the reference stream, not the network, so it must be
// identical across topologies (the paper: "the number of messages
// generated on the network due to non-local references in an application
// is the same regardless of the network topology").
func TestStaticAppsSameMissesAcrossNetworks(t *testing.T) {
	for _, name := range []string{"ep", "fft"} {
		var base uint64
		for i, topo := range []string{"full", "cube", "mesh"} {
			r := run(t, name, machine.CLogP, topo, 4)
			misses := r.Count(func(p *stats.Proc) uint64 { return p.Misses })
			if i == 0 {
				base = misses
				continue
			}
			// Data misses are topology-independent; only the
			// timing-dependent synchronization probes may differ,
			// and only slightly.
			lo, hi := base*98/100, base*102/100
			if misses < lo || misses > hi {
				t.Errorf("%s: misses on %s = %d, on full = %d (out of 2%% band)",
					name, topo, misses, base)
			}
		}
	}
}

// TestComputeToCommunicationOrdering checks the suite spans the spectrum
// the paper describes: EP has the highest compute-to-communication
// ratio, IS more communication than FFT.
func TestComputeToCommunicationOrdering(t *testing.T) {
	ratio := func(name string) float64 {
		r := run(t, name, machine.CLogP, "full", 4)
		msgs := r.Messages()
		if msgs == 0 {
			return 1e18
		}
		return float64(r.Sum(stats.Compute)) / float64(msgs)
	}
	ep, fft, is := ratio("ep"), ratio("fft"), ratio("is")
	if !(ep > fft) {
		t.Errorf("compute/comm: ep=%.0f should exceed fft=%.0f", ep, fft)
	}
	if !(fft > is) {
		t.Errorf("compute/comm: fft=%.0f should exceed is=%.0f", fft, is)
	}
}

// TestFFTSpatialLocalityLatencyGap reproduces the Figure 1 mechanism at
// unit-test scale: LogP's latency overhead for FFT is close to 4x the
// CLogP machine's, because the cached machines fetch four 8-byte items
// per 32-byte block.
func TestFFTSpatialLocalityLatencyGap(t *testing.T) {
	logp := run(t, "fft", machine.LogP, "full", 4)
	clogp := run(t, "fft", machine.CLogP, "full", 4)
	l := float64(logp.Sum(stats.Latency))
	c := float64(clogp.Sum(stats.Latency))
	if l < 2.5*c {
		t.Errorf("LogP latency %.0f not >= 2.5x CLogP %.0f", l, c)
	}
}

// TestCholeskyDynamicLoadBalancing checks the task queue actually spreads
// columns across processors.
func TestCholeskyDynamicLoadBalancing(t *testing.T) {
	prog, err := New("cholesky", Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Execute(prog, machine.Config{Kind: machine.Target, Topology: "full", P: 4}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch := prog.(*Cholesky)
	busy := 0
	for _, n := range ch.byProc {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d processors factored columns: %v", busy, ch.byProc)
	}
	_ = res
}

// TestTargetInvariantsAfterApps runs every app on the target machine and
// checks the coherence invariants afterwards.
func TestTargetInvariantsAfterApps(t *testing.T) {
	for _, name := range Names() {
		prog, err := New(name, Tiny, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.Config{Kind: machine.Target, Topology: "cube", P: 4}
		res, err := app.Execute(prog, cfg, app.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := machine.CheckInvariants(res.Machine); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDifferentSeedsDifferentWork(t *testing.T) {
	totals := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		prog, _ := New("cg", Tiny, seed)
		res, err := app.Execute(prog, machine.Config{Kind: machine.CLogP, Topology: "full", P: 4}, app.Options{})
		if err != nil {
			t.Fatal(err)
		}
		totals[fmt.Sprint(res.Stats.Total)] = true
	}
	if len(totals) < 2 {
		t.Error("seeds do not vary the workload")
	}
}
