package apps

import (
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/stats"
	"spasm/internal/trace"
)

// lookupTraffic builds a registered traffic workload as the registry does.
func lookupTraffic(t *testing.T, name string, scale Scale, seed int64) *traffic {
	t.Helper()
	prog, err := Lookup(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return prog.(*traffic)
}

// ruleNamed returns the registered rule of the given name.
func ruleNamed(t *testing.T, name string) *rule { return lookupTraffic(t, name, Tiny, 1).rule }

// uniform2048 is uniform traffic at the other rules' footprint of 2048
// elements per node: the baseline a pattern is measured against, so the
// pattern and not the cache makes the difference.
var uniform2048 = rule{name: "uniform", perNode: 2048, dest: rules[0].dest}

// micro is a traffic run of 200 references per processor at seed 1.
func micro(r *rule, think int64) *traffic {
	return &traffic{rule: r, refs: 200, think: think, seed: 1}
}

func runTraffic(t *testing.T, prog *traffic, cfg machine.Config) *app.Result {
	t.Helper()
	res, err := app.Execute(prog, cfg, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUniformExtendedRegistry(t *testing.T) {
	for i := range rules {
		name := rules[i].name
		if !Known(name) {
			t.Errorf("%s is not registered", name)
			continue
		}
		if got := lookupTraffic(t, name, Tiny, 1).Name(); got != name {
			t.Errorf("%s builds a program named %q", name, got)
		}
	}
}

func TestMicroNotInRegistry(t *testing.T) {
	// The traffic workloads must not perturb the paper's five-app suite.
	for _, name := range Names() {
		for i := range rules {
			if name == rules[i].name {
				t.Errorf("traffic workload %q leaked into the paper suite", name)
			}
		}
	}
}

func TestMicroPatternsRun(t *testing.T) {
	for i := range rules {
		r := runTraffic(t, micro(&rules[i], 50), machine.Config{Kind: machine.Target, Topology: "mesh", P: 4}).Stats
		refs := r.Count(func(q *stats.Proc) uint64 { return q.Reads + q.Writes })
		if refs != 4*200 {
			t.Errorf("%s: %d references, want 800", rules[i].name, refs)
		}
	}
}

func TestUniformRunsOnEveryMachine(t *testing.T) {
	// Check() replays the deterministic reference stream, so a clean run
	// on each machine kind proves the issued traffic matched it.
	for i := range rules {
		for _, kind := range machine.Kinds() {
			runTraffic(t, lookupTraffic(t, rules[i].name, Tiny, 1), machine.Config{Kind: kind, Topology: "mesh", P: 8})
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	cfg := machine.Config{Kind: machine.Flow, Topology: "torus", P: 16}
	a := runTraffic(t, lookupTraffic(t, "uniform", Tiny, 3), cfg)
	b := runTraffic(t, lookupTraffic(t, "uniform", Tiny, 3), cfg)
	if a.Stats.Total != b.Stats.Total {
		t.Fatalf("identical specs diverged: %v != %v", a.Stats.Total, b.Stats.Total)
	}
	c := runTraffic(t, lookupTraffic(t, "uniform", Tiny, 4), cfg)
	if c.Stats.Total == a.Stats.Total && c.Stats.Messages() == a.Stats.Messages() {
		t.Error("seed change did not vary the traffic")
	}
}

func TestUniformScalesQuota(t *testing.T) {
	for i := range rules {
		name := rules[i].name
		tiny := lookupTraffic(t, name, Tiny, 1).refs
		small := lookupTraffic(t, name, Small, 1).refs
		medium := lookupTraffic(t, name, Medium, 1).refs
		if !(tiny < small && small < medium) {
			t.Errorf("%s: reference quotas not increasing: %d, %d, %d", name, tiny, small, medium)
		}
	}
}

func TestUniformCommunicates(t *testing.T) {
	res := runTraffic(t, lookupTraffic(t, "uniform", Tiny, 1), machine.Config{Kind: machine.LogP, Topology: "full", P: 8})
	if res.Stats.NetAccesses() == 0 {
		t.Error("uniform traffic produced no network accesses")
	}
}

func TestMicroHotSpotConcentratesTraffic(t *testing.T) {
	// The hot block is homed at node 0: under the hot-spot pattern
	// node 0's ejection side must see disproportionate traffic,
	// visible as higher total contention than uniform.
	cfg := machine.Config{Kind: machine.Target, Topology: "mesh", P: 8}
	uni := runTraffic(t, micro(&uniform2048, 50), cfg).Stats
	hot := runTraffic(t, micro(ruleNamed(t, "hotspot"), 50), cfg).Stats
	if hot.Sum(stats.Contention) <= uni.Sum(stats.Contention) {
		t.Errorf("hot-spot contention %v not above uniform %v",
			hot.Sum(stats.Contention), uni.Sum(stats.Contention))
	}
}

func TestMicroNeighborIsLocalised(t *testing.T) {
	// Neighbour traffic has communication locality: its mean route
	// length on the mesh is well below uniform traffic's (ID-adjacent
	// processors are mesh-adjacent except at row boundaries).
	topo := network.NewMesh(16)
	meanHops := func(r *rule) float64 {
		tr, res, err := trace.Record(micro(r, 50), machine.Config{
			Kind: machine.CLogP, Topology: "mesh", P: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		hops, n := 0, 0
		for _, e := range tr.Events {
			home := res.Space.Home(e.Addr)
			if home != int(e.Proc) {
				hops += len(topo.Route(int(e.Proc), home))
				n++
			}
		}
		if n == 0 {
			t.Fatal("no remote references")
		}
		return float64(hops) / float64(n)
	}
	uni, nb := meanHops(&uniform2048), meanHops(ruleNamed(t, "neighbor"))
	if nb >= uni*0.8 {
		t.Errorf("neighbour mean hops %.2f not below uniform %.2f", nb, uni)
	}
}

func TestMicroThinkTimeControlsLoad(t *testing.T) {
	cfg := machine.Config{Kind: machine.Target, Topology: "cube", P: 4}
	slow, fast := micro(&uniform2048, 2000), micro(&uniform2048, 20)
	slow.refs, fast.refs = 100, 100
	resSlow, resFast := runTraffic(t, slow, cfg), runTraffic(t, fast, cfg)
	// More think time: longer run but less contention per message.
	if resSlow.Stats.Total <= resFast.Stats.Total {
		t.Error("think time did not lengthen the run")
	}
	perMsg := func(r *stats.Run) float64 {
		return float64(r.Sum(stats.Contention)) / float64(r.Messages())
	}
	if perMsg(resSlow.Stats) >= perMsg(resFast.Stats) {
		t.Errorf("offered load did not drive per-message contention: %.1f vs %.1f",
			perMsg(resSlow.Stats), perMsg(resFast.Stats))
	}
}

// checkCatchesDivergence runs the named traffic workload and corrupts one
// processor's observed stream: Check must fail, since a right count of
// wrong references is not a pass.
func checkCatchesDivergence(t *testing.T, name string) {
	t.Helper()
	m := lookupTraffic(t, name, Tiny, 1)
	runTraffic(t, m, machine.Config{Kind: machine.Ideal, P: 4})
	m.ctx.Issued[2].Sum++ // corrupt one processor's observed stream
	if err := m.Check(); err == nil {
		t.Errorf("%s: corrupted checksum passed verification", name)
	}
}

func TestUniformChecksumCatchesDivergence(t *testing.T) {
	checkCatchesDivergence(t, "uniform")
}

// TestMicroChecksumCatchesDivergence: the same holds on every other rule's
// branch of the stream.
func TestMicroChecksumCatchesDivergence(t *testing.T) {
	for i := range rules {
		if rules[i].name != "uniform" {
			checkCatchesDivergence(t, rules[i].name)
		}
	}
}
