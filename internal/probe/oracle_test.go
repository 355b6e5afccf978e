package probe_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"spasm"
	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/flow"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/probe"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// oracleCaps are the epoch and link caps every oracle spec runs under:
// the defaults, then budgets tight enough that rescales merge folded
// link tables and recycle the epochs they merge away.
var oracleCaps = [][2]int{{0, 0}, {4, 8}, {4, 256}, {8, 8}, {8, 256}}

// oracleSpecs are every workload on every networked machine tier, on
// the full, cube and mesh topologies (torus on flow, as spasmd's cold
// flow shape runs), that Spec.Validate accepts at tiny scale with 4 and
// 16 processors, plus uniform traffic at 64.  Under the race detector,
// whose instrumentation makes each one many times dearer, every
// raceStride-th of them runs.
func oracleSpecs() []spasm.Spec {
	var specs []spasm.Spec
	for _, name := range append(apps.Names(), "mg", "uniform") {
		for _, kind := range []spasm.Kind{spasm.Target, spasm.CLogP, spasm.LogP, spasm.Flow} {
			grid := "mesh"
			if kind == spasm.Flow {
				grid = "torus"
			}
			for _, topo := range []string{"full", "cube", grid} {
				ps := []int{4, 16}
				if name == "uniform" {
					ps = append(ps, 64)
				}
				for _, p := range ps {
					s := spasm.Spec{App: name, Scale: spasm.Tiny, Seed: 1, Machine: kind, Topology: topo, P: p}
					if s.Validate() == nil {
						specs = append(specs, s)
					}
				}
			}
		}
	}
	var kept []spasm.Spec
	for i := 0; i < len(specs); i += raceStride {
		kept = append(kept, specs[i])
	}
	return kept
}

// tee attaches several instruments to one run: each hooks the engine
// clock in turn (the hooks chain), and the network observer each sets is
// gathered into one that calls them all in attach order.  The observers
// only read the run, so every instrument sees what it would see alone.
// None of them keeps state with a context: one slot cannot hold the
// tables of several profilers at once.
type tee []app.Instrument

func (t tee) Attach(cfg machine.Config, eng *sim.Engine, run *stats.Run, m machine.Machine, _ *any) {
	var fabs []func(sim.Time, network.Xmit, int, int, int, []int)
	var flows []func(sim.Time, flow.Xmit, int, int, int)
	var nets []func(sim.Time, logp.Xmit, int, int)
	for _, in := range t {
		in.Attach(cfg, eng, run, m, new(any))
		if nm, ok := m.(machine.Networked); ok && nm.Fabric() != nil && nm.Fabric().Observer != nil {
			fabs = append(fabs, nm.Fabric().Observer)
		} else if fm, ok := m.(machine.Flowed); ok && fm.FlowNet() != nil && fm.FlowNet().Observer != nil {
			flows = append(flows, fm.FlowNet().Observer)
		} else if am, ok := m.(machine.Abstracted); ok && am.Net() != nil && am.Net().Observer != nil {
			nets = append(nets, am.Net().Observer)
		}
	}
	switch {
	case len(fabs) > 0:
		m.(machine.Networked).Fabric().Observer = func(now sim.Time, x network.Xmit, src, dst, bytes int, route []int) {
			for _, f := range fabs {
				f(now, x, src, dst, bytes, route)
			}
		}
	case len(flows) > 0:
		m.(machine.Flowed).FlowNet().Observer = func(now sim.Time, x flow.Xmit, src, dst, bytes int) {
			for _, f := range flows {
				f(now, x, src, dst, bytes)
			}
		}
	case len(nets) > 0:
		m.(machine.Abstracted).Net().Observer = func(now sim.Time, x logp.Xmit, src, dst int) {
			for _, f := range nets {
				f(now, x, src, dst)
			}
		}
	}
}

func (t tee) Finish(res *app.Result) {
	for _, in := range t {
		in.Finish(res)
	}
}

// recorded is one profiler's output: its encoded profile and the JSON
// of its OnEpoch sequence.
type recorded struct {
	events  []probe.EpochEvent
	profile func() *probe.Profile
}

func (r *recorded) outputs(t *testing.T) (enc, feed []byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.profile().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	feed, err := json.Marshal(r.events)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), feed
}

// TestProbeMatchesReference holds the Profiler to the reference
// accumulator it replaced: on every oracle spec and under every cap,
// both encode the same profile and emit the same OnEpoch sequence, byte
// for byte.  One simulation of each spec feeds all of them.
func TestProbeMatchesReference(t *testing.T) {
	specs := oracleSpecs()
	if len(specs)*raceStride < 150 {
		t.Fatalf("only %d oracle specs validate", len(specs))
	}
	for _, s := range specs {
		t.Run(fmt.Sprintf("%s/%v/%s/p%d", s.App, s.Machine, s.Topology, s.P), func(t *testing.T) {
			var all tee
			var got, want []*recorded
			for _, c := range oracleCaps {
				r, ref := &recorded{}, &recorded{}
				pr := probe.NewCapped(probe.Config{OnEpoch: func(ev probe.EpochEvent) { r.events = append(r.events, ev) }}, c[0], c[1])
				rp := probe.NewReference(probe.Config{OnEpoch: func(ev probe.EpochEvent) { ref.events = append(ref.events, ev) }}, c[0], c[1])
				r.profile, ref.profile = pr.Profile, rp.Profile
				all = append(all, pr, rp)
				got, want = append(got, r), append(want, ref)
			}
			if _, err := execute(s, all); err != nil {
				t.Fatal(err)
			}
			for i, c := range oracleCaps {
				enc, feed := got[i].outputs(t)
				refEnc, refFeed := want[i].outputs(t)
				if !bytes.Equal(enc, refEnc) {
					t.Errorf("epochs %d links %d: encoded profile (%d bytes) differs from the reference's (%d bytes)",
						c[0], c[1], len(enc), len(refEnc))
				}
				if !bytes.Equal(feed, refFeed) {
					t.Errorf("epochs %d links %d: OnEpoch sequence (%d events) differs from the reference's (%d events)",
						c[0], c[1], len(got[i].events), len(want[i].events))
				}
			}
		})
	}
}

// TestProbeRecyclesAcrossGoroutines runs profiled runs of three shapes
// on two goroutines at once, round after round, so recycled
// accumulators pass between runs, sizes and goroutines: unpooled, and
// through one shared RunPool whose contexts a larger profiled run of
// the same configuration has dirtied first.  Every profile must encode
// as its shape's first, fresh run did.
func TestProbeRecyclesAcrossGoroutines(t *testing.T) {
	specs := []spasm.Spec{
		{App: "fft", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 16},
		{App: "uniform", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Flow, Topology: "torus", P: 64},
		{App: "cg", Scale: spasm.Tiny, Seed: 1, Machine: spasm.LogP, Topology: "cube", P: 4},
	}
	encode := func(s spasm.Spec, pool *spasm.RunPool) ([]byte, error) {
		_, p, err := spasm.Execute(s, spasm.RunOptions{Pool: pool, Profile: &spasm.ProfileConfig{}})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		_, err = p.Encode(&buf)
		return buf.Bytes(), err
	}
	first := make([][]byte, len(specs))
	for i, s := range specs {
		var err error
		if first[i], err = encode(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	pool := spasm.NewRunPool(0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Longer runs of the same configurations leave the contexts
			// this goroutine hands back with grown, written tables.
			for _, s := range specs {
				s.Scale, s.Seed = spasm.Small, int64(2+g)
				if _, err := encode(s, pool); err != nil {
					t.Errorf("goroutine %d: %s at small: %v", g, s.App, err)
				}
			}
			for k := 0; k < 12; k++ {
				i := (g + k) % len(specs)
				var p *spasm.RunPool
				if k%2 == 1 {
					p = pool
				}
				got, err := encode(specs[i], p)
				if err != nil || !bytes.Equal(got, first[i]) {
					t.Errorf("goroutine %d round %d (pooled %v): %s profile differs from its first run (err %v)",
						g, k, p != nil, specs[i].App, err)
				}
			}
		}()
	}
	wg.Wait()
	if st := pool.Stats(); st.Hits == 0 {
		t.Errorf("no pooled run reused a context: %+v", st)
	}
}
