package apps

import (
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/stats"
	"spasm/internal/trace"
)

func runMicro(t *testing.T, pattern Pattern, p int) *stats.Run {
	t.Helper()
	prog := NewMicro(pattern, 200, 50, 1)
	res, err := app.Run(prog, machine.Config{Kind: machine.Target, Topology: "mesh", P: p})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestMicroPatternsRun(t *testing.T) {
	for _, pat := range []Pattern{UniformPattern, HotSpotPattern, NeighborPattern} {
		r := runMicro(t, pat, 4)
		refs := r.Count(func(q *stats.Proc) uint64 { return q.Reads + q.Writes })
		if refs != 4*200 {
			t.Errorf("%v: %d references, want 800", pat, refs)
		}
	}
}

func TestMicroNotInRegistry(t *testing.T) {
	// Microbenchmarks must not perturb the paper's five-app suite.
	for _, name := range Names() {
		if name == "micro-uniform" || name == "micro-hotspot" || name == "micro-neighbor" {
			t.Errorf("microbenchmark %q leaked into the registry", name)
		}
	}
}

func TestMicroHotSpotConcentratesTraffic(t *testing.T) {
	// The hot block is homed at node 0: under the hot-spot pattern
	// node 0's ejection side must see disproportionate traffic,
	// visible as higher total contention than uniform.
	uni := runMicro(t, UniformPattern, 8)
	hot := runMicro(t, HotSpotPattern, 8)
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
	meanHops := func(pattern Pattern) float64 {
		prog := NewMicro(pattern, 200, 50, 1)
		var rec *trace.Recorder
		res, err := app.Execute(prog, machine.Config{
			Kind: machine.CLogP, Topology: "mesh", P: 16,
		}, app.Options{Wrap: func(m machine.Machine) machine.Machine {
			rec = trace.NewRecorder(m)
			return rec
		}})
		if err != nil {
			t.Fatal(err)
		}
		hops, n := 0, 0
		for _, e := range rec.Events {
			home := res.Space.Home(e.Addr)
			if home != int(e.Proc) {
				hops += topo.Hops(int(e.Proc), home)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no remote references")
		}
		return float64(hops) / float64(n)
	}
	uni, nb := meanHops(UniformPattern), meanHops(NeighborPattern)
	if nb >= uni*0.8 {
		t.Errorf("neighbour mean hops %.2f not below uniform %.2f", nb, uni)
	}
}

func TestMicroThinkTimeControlsLoad(t *testing.T) {
	slow := NewMicro(UniformPattern, 100, 2000, 1)
	fast := NewMicro(UniformPattern, 100, 20, 1)
	resSlow, err := app.Run(slow, machine.Config{Kind: machine.Target, Topology: "cube", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	resFast, err := app.Run(fast, machine.Config{Kind: machine.Target, Topology: "cube", P: 4})
	if err != nil {
		t.Fatal(err)
	}
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

func TestMicroPatternString(t *testing.T) {
	if Pattern(9).String() == "" {
		t.Error("unknown pattern name")
	}
	prog := NewMicro(HotSpotPattern, 10, 1, 2)
	if prog.Name() != "micro-hotspot" {
		t.Errorf("name = %q", prog.Name())
	}
}

// TestMicroChecksumCatchesDivergence: like Uniform, a Micro run whose
// traffic left its schedule fails Check, on every pattern's branch of
// the stream — a right count of wrong references is not a pass.
func TestMicroChecksumCatchesDivergence(t *testing.T) {
	for _, pat := range []Pattern{UniformPattern, HotSpotPattern, NeighborPattern} {
		m := NewMicro(pat, 200, 50, 1)
		if _, err := app.Run(m, machine.Config{Kind: machine.Ideal, P: 4}); err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		m.ctx.Issued[2].Sum++ // corrupt one processor's observed stream
		if err := m.Check(); err == nil {
			t.Errorf("%v: corrupted checksum passed verification", pat)
		}
	}
}
