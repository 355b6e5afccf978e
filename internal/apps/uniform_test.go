package apps

import (
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
)

func runUniform(t *testing.T, kind machine.Kind, topo string, p int, scale Scale, seed int64) *app.Result {
	t.Helper()
	res, err := app.Run(NewUniform(scale, seed), machine.Config{Kind: kind, Topology: topo, P: p})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUniformExtendedRegistry(t *testing.T) {
	prog, err := Lookup("uniform", Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "uniform" {
		t.Errorf("name = %q", prog.Name())
	}
	for _, suite := range Names() {
		if suite == "uniform" {
			t.Error("uniform leaked into the paper suite")
		}
	}
}

func TestUniformRunsOnEveryMachine(t *testing.T) {
	// Check() replays the deterministic reference stream, so a clean run
	// on each machine kind proves the issued traffic matched it.
	for _, kind := range machine.Kinds() {
		runUniform(t, kind, "mesh", 8, Tiny, 1)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := runUniform(t, machine.Flow, "torus", 16, Tiny, 3)
	b := runUniform(t, machine.Flow, "torus", 16, Tiny, 3)
	if a.Stats.Total != b.Stats.Total {
		t.Fatalf("identical specs diverged: %v != %v", a.Stats.Total, b.Stats.Total)
	}
	c := runUniform(t, machine.Flow, "torus", 16, Tiny, 4)
	if c.Stats.Total == a.Stats.Total && c.Stats.Messages() == a.Stats.Messages() {
		t.Error("seed change did not vary the traffic")
	}
}

func TestUniformScalesQuota(t *testing.T) {
	tiny := NewUniform(Tiny, 1).(*Uniform)
	small := NewUniform(Small, 1).(*Uniform)
	medium := NewUniform(Medium, 1).(*Uniform)
	if !(tiny.Refs < small.Refs && small.Refs < medium.Refs) {
		t.Fatalf("reference quotas not increasing: %d, %d, %d", tiny.Refs, small.Refs, medium.Refs)
	}
}

func TestUniformChecksumCatchesDivergence(t *testing.T) {
	u := NewUniform(Tiny, 1).(*Uniform)
	if _, err := app.Run(u, machine.Config{Kind: machine.Ideal, P: 4}); err != nil {
		t.Fatal(err)
	}
	u.ctx.Issued[2].Sum++ // corrupt one processor's observed stream
	if err := u.Check(); err == nil {
		t.Error("corrupted checksum passed verification")
	}
}

func TestUniformCommunicates(t *testing.T) {
	res := runUniform(t, machine.LogP, "full", 8, Tiny, 1)
	if res.Stats.NetAccesses() == 0 {
		t.Error("uniform traffic produced no network accesses")
	}
}
