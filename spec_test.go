package spasm_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spasm"
)

// TestSpecKeyDefaultInsensitivity: a spec with defaults left at their
// zero values and one with the defaults spelled out explicitly must
// share a key (and hash) — the property the content-addressed result
// cache depends on.
func TestSpecKeyDefaultInsensitivity(t *testing.T) {
	implicit := spasm.Spec{App: "fft", Machine: spasm.Target, P: 4}
	explicit := spasm.Spec{
		App:      "fft",
		Scale:    spasm.Tiny,
		Seed:     1,
		Machine:  spasm.Target,
		Topology: "full",
		P:        4,
		PortMode: spasm.CombinedGap,
		Protocol: spasm.BerkeleyProtocol,
	}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("default-insensitivity violated:\n  implicit %q\n  explicit %q",
			implicit.Key(), explicit.Key())
	}
	if implicit.Hash() != explicit.Hash() {
		t.Fatalf("hashes differ for identical keys")
	}
}

// TestSpecKeyStable: the key is deterministic across calls and uses the
// documented fixed field order.
func TestSpecKeyStable(t *testing.T) {
	s := spasm.Spec{App: "is", Scale: spasm.Small, Seed: 7, Machine: spasm.LogP, Topology: "mesh", P: 16}
	want := "app=is scale=small seed=7 machine=logp topo=mesh p=16 port=combined proto=berkeley adaptive=false esc=0"
	for i := 0; i < 3; i++ {
		if got := s.Key(); got != want {
			t.Fatalf("call %d: Key() = %q, want %q", i, got, want)
		}
	}
}

// TestSpecKeyDiscriminates: changing any field changes the key.
func TestSpecKeyDiscriminates(t *testing.T) {
	base := spasm.Spec{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "full", P: 8}
	variants := []spasm.Spec{
		{App: "ep", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "full", P: 8},
		{App: "cg", Scale: spasm.Medium, Seed: 1, Machine: spasm.Target, Topology: "full", P: 8},
		{App: "cg", Scale: spasm.Small, Seed: 2, Machine: spasm.Target, Topology: "full", P: 8},
		{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.CLogP, Topology: "full", P: 8},
		{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 8},
		{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "full", P: 16},
		{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "full", P: 8, PortMode: spasm.PerClassGap},
		{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "full", P: 8, Protocol: spasm.MSIProtocol},
		{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.Flow, Topology: "full", P: 8},
	}
	seen := map[string]bool{base.Key(): true}
	for i, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("variant %d has a colliding key %q", i, v.Key())
		}
		seen[v.Key()] = true
	}
}

// TestSpecHashPinned: content addresses outlive releases — result
// stores, trace archives and replay manifests name runs by them.  The
// values were computed before Spec lost its two fidelity fields (whose
// zero values the key still spells out); one spec per kind of machine.
func TestSpecHashPinned(t *testing.T) {
	for _, c := range []struct {
		spec spasm.Spec
		want string
	}{
		{spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Target, Topology: "mesh", P: 4},
			"6251edb7b5620ea473a808ba1f10f64355855b835188167c92eb70e2bd7d4dc0"},
		{spasm.Spec{App: "is", Scale: spasm.Small, Seed: 7, Machine: spasm.LogP, Topology: "cube", P: 16, PortMode: spasm.PerClassGap},
			"a18252daa6f1c5e7a35a713cd8f8e06b468cbd798acddde3487a51e268b1137d"},
		{spasm.Spec{App: "uniform", Scale: spasm.Tiny, Machine: spasm.Flow, Topology: "torus", P: 64, Workers: 3},
			"acf4271d76afb2b3cc372b6535bb0e41ad0d6e98764a78d61412f7bb55d2b362"},
	} {
		if got := c.spec.Hash(); got != c.want {
			t.Errorf("%s\n  hashes to %s, want %s", c.spec.Key(), got, c.want)
		}
	}
}

func TestSpecHashForm(t *testing.T) {
	h := spasm.Spec{App: "ep", P: 2}.Hash()
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(h) {
		t.Fatalf("Hash() = %q, want 64 lowercase hex chars", h)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (spasm.Spec{App: "nope", P: 2}).Validate(); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := (spasm.Spec{App: "fft", P: 0}).Validate(); err == nil {
		t.Fatal("P=0 accepted")
	}
	if err := (spasm.Spec{App: "mg", P: 2}).Validate(); err != nil {
		t.Fatalf("extension workload rejected: %v", err)
	}
}

// TestSpecValidateNetworkP: every kind that builds a network rejects a
// processor count the network cannot take, naming the rule; the ideal
// machine builds none and takes any P >= 1.
func TestSpecValidateNetworkP(t *testing.T) {
	for _, kind := range spasm.Machines() {
		for _, p := range []int{1, 3, 6, 12} {
			err := spasm.Spec{App: "ep", Machine: kind, Topology: "torus", P: p}.Validate()
			switch {
			case kind == spasm.Ideal && err != nil:
				t.Errorf("ideal p=%d rejected: %v", p, err)
			case kind != spasm.Ideal && (err == nil || !strings.Contains(err.Error(), "must be a power of two >= 2")):
				t.Errorf("%v p=%d: %v, want the power-of-two rule", kind, p, err)
			}
		}
	}
}

// TestSpecValidateMaxP: processor counts beyond a machine kind's limit
// are rejected with an error naming the kind and its bound — no spec
// should ever reach the coherence engine's internal panic.
func TestSpecValidateMaxP(t *testing.T) {
	for _, kind := range []spasm.Kind{spasm.Ideal, spasm.Flow, spasm.LogP, spasm.CLogP, spasm.Target} {
		max := spasm.MaxPFor(kind)
		if max < 1024 {
			t.Errorf("%v: limit %d below the 1024-processor floor", kind, max)
		}
		at := spasm.Spec{App: "ep", Machine: kind, P: max}
		if err := at.Validate(); err != nil {
			t.Errorf("%v: P at the limit (%d) rejected: %v", kind, max, err)
		}
		over := spasm.Spec{App: "ep", Machine: kind, P: max + 1}
		err := over.Validate()
		if err == nil {
			t.Errorf("%v: P=%d (over the %d limit) accepted", kind, max+1, max)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, kind.String()) || !strings.Contains(msg, strconv.Itoa(max)) {
			t.Errorf("%v: error %q does not name the kind and its limit %d", kind, msg, max)
		}
	}
	// The coherent machines are bounded by the directory representation.
	if got := spasm.MaxPFor(spasm.Target); got != 1024 {
		t.Errorf("target limit = %d, want 1024", got)
	}
}

// TestSpecValidateAppMaxP: FFT needs a row of its R = √N per processor,
// so past R a spec is rejected with an error naming the limit for its
// scale — not run into a Setup panic — while every other application
// takes any P its machine does.
func TestSpecValidateAppMaxP(t *testing.T) {
	limit := map[spasm.Scale]int{spasm.Tiny: 16, spasm.Small: 64, spasm.Medium: 128}
	for _, scale := range []spasm.Scale{spasm.Tiny, spasm.Small, spasm.Medium} {
		for _, p := range []int{16, 32, 64, 128, 256, 1024} {
			for _, name := range append(spasm.Apps(), spasm.ExtendedApps()...) {
				err := spasm.Spec{App: name, Scale: scale, Machine: spasm.Ideal, Topology: "cube", P: p}.Validate()
				max := limit[scale]
				switch {
				case name != "fft" || p <= max:
					if err != nil {
						t.Errorf("%s at %v p%d rejected: %v", name, scale, p, err)
					}
				case err == nil:
					t.Errorf("fft at %v p%d accepted, past its limit of %d", scale, p, max)
				case !strings.Contains(err.Error(), "limit of "+strconv.Itoa(max)) || !strings.Contains(err.Error(), scale.String()):
					t.Errorf("fft at %v p%d: error %q does not name the limit %d for the scale", scale, p, err, max)
				}
			}
		}
	}
	// The limit is where Setup stops: fft runs at it and validation, not a
	// panic, stops it one step past.
	if _, _, err := spasm.Execute(spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Ideal, Topology: "cube", P: 16}, spasm.RunOptions{}); err != nil {
		t.Errorf("fft at its tiny limit: %v", err)
	}
	if _, _, err := spasm.Execute(spasm.Spec{App: "fft", Scale: spasm.Tiny, Machine: spasm.Ideal, Topology: "cube", P: 32}, spasm.RunOptions{}); err == nil || strings.Contains(err.Error(), "panicked") {
		t.Errorf("fft one step past its tiny limit: %v, want a validation error", err)
	}
}

// TestSpecValidateEnums: every enumerated field rejects out-of-range
// values with an error that names the valid choices.
func TestSpecValidateEnums(t *testing.T) {
	ok := spasm.Spec{App: "fft", Machine: spasm.Flow, P: 4}
	cases := []struct {
		name string
		spec spasm.Spec
		want string // substring the error must carry: the valid choices
	}{
		{"scale", func(s spasm.Spec) spasm.Spec { s.Scale = 9; return s }(ok), "tiny, small, medium"},
		{"machine", func(s spasm.Spec) spasm.Spec { s.Machine = 99; return s }(ok), "flow"},
		{"topology", func(s spasm.Spec) spasm.Spec { s.Topology = "star"; return s }(ok), "torus"},
		{"portmode", func(s spasm.Spec) spasm.Spec { s.PortMode = 7; return s }(ok), "combined"},
		{"protocol", func(s spasm.Spec) spasm.Spec { s.Protocol = 9; return s }(ok), "berkeley, msi, update"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not list valid choices (want substring %q)", c.name, err, c.want)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

// TestRunSpecMatchesRun: running a spec with Execute is the same
// deterministic run as the positional Run API.
func TestRunSpecMatchesRun(t *testing.T) {
	spec := spasm.Spec{App: "fft", Scale: spasm.Tiny, Seed: 1, Machine: spasm.LogP, Topology: "cube", P: 4}
	a, _, err := spasm.Execute(spec, spasm.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := spasm.Run("fft", spasm.Tiny, 1, spasm.Config{Kind: spasm.LogP, Topology: "cube", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Total != b.Stats.Total {
		t.Fatalf("total differs: Execute %v, Run %v", a.Stats.Total, b.Stats.Total)
	}
	for _, bkt := range []spasm.Bucket{spasm.Compute, spasm.Memory, spasm.Latency, spasm.Contention, spasm.Sync} {
		if a.Stats.Sum(bkt) != b.Stats.Sum(bkt) {
			t.Fatalf("%v differs: Execute %v, Run %v", bkt, a.Stats.Sum(bkt), b.Stats.Sum(bkt))
		}
	}
	if a.Stats.Messages() != b.Stats.Messages() {
		t.Fatalf("messages differ: Execute %d, Run %d", a.Stats.Messages(), b.Stats.Messages())
	}
}
