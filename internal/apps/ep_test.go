package apps

import (
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

func runEP(t *testing.T, kind machine.Kind, p int, pairs int) (*EP, *stats.Run) {
	t.Helper()
	ep := &EP{Pairs: pairs, PairCycles: 120, Seed: 1}
	res, err := app.Execute(ep, machine.Config{Kind: kind, Topology: "full", P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ep, res.Stats
}

func TestEPTallyMatchesOracleOnEveryMachine(t *testing.T) {
	// Check() already compares against the oracle; this asserts the
	// run completes on every machine, i.e. the merge and signalling
	// chain work under all timing models.
	for _, kind := range machine.Kinds() {
		runEP(t, kind, 4, 512)
	}
}

func TestEPBinsSumToAcceptedPairs(t *testing.T) {
	ep, _ := runEP(t, machine.Ideal, 4, 2048)
	var total int64
	for _, b := range ep.merged.bins {
		total += b
	}
	// Polar method acceptance rate is pi/4 ~ 78.5%.
	if total < 1200 || total > 1900 {
		t.Errorf("accepted %d of 2048 pairs (expected ~78%%)", total)
	}
}

func TestEPComputeDominates(t *testing.T) {
	// The defining property of EP: compute overwhelms communication.
	_, run := runEP(t, machine.Target, 4, 1<<13)
	compute := run.Sum(stats.Compute)
	network := run.Sum(stats.Latency) + run.Sum(stats.Contention)
	if compute < 10*network {
		t.Errorf("compute %v not >= 10x network %v", compute, network)
	}
}

func TestEPSignallingChainIsNeighbourly(t *testing.T) {
	// Flag i is homed at node i, so the wait-then-signal chain
	// communicates only between ID-adjacent processors — the
	// communication locality that makes the paper's Figure 11 g
	// estimate so pessimistic.  Verify the flags' homes.
	ep := NewEP(Tiny, 1).(*EP)
	res, err := app.Execute(ep, machine.Config{Kind: machine.Ideal, Topology: "full", P: 8}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	homes := map[string]int{}
	for _, r := range res.Space.Regions() {
		homes[r.Name] = res.Space.Home(r.At(0))
	}
	for i, f := range ep.flags {
		if home := homes[f.Name]; home != i {
			t.Errorf("flag %d homed at %d", i, home)
		}
	}
}

func TestEPScalesWork(t *testing.T) {
	_, small := runEP(t, machine.Ideal, 4, 512)
	_, large := runEP(t, machine.Ideal, 4, 4096)
	if large.Total <= small.Total {
		t.Errorf("more pairs did not take longer: %v vs %v", large.Total, small.Total)
	}
}

func TestEPWorkBalanced(t *testing.T) {
	_, run := runEP(t, machine.Ideal, 8, 1<<12)
	minC, maxC := run.Procs[0].Time[stats.Compute], run.Procs[0].Time[stats.Compute]
	for i := range run.Procs {
		c := run.Procs[i].Time[stats.Compute]
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC > minC*11/10 {
		t.Errorf("compute imbalance: %v vs %v", minC, maxC)
	}
}

// lossyEP corrupts one processor's share between Setup and the run, the
// host-side image of a merge that lost or doubled an update.
type lossyEP struct {
	*EP
	corrupt func(*epTally)
}

func (l lossyEP) Setup(c *app.Ctx) {
	l.EP.Setup(c)
	l.corrupt(&l.EP.part[c.P/2])
}

// The oracle is the sequential sum of the shares Setup drew; Body merges
// the same shares under the simulated lock.  A share that reaches the
// merge changed must still fail Check.
func TestEPOracleStillBites(t *testing.T) {
	for name, corrupt := range map[string]func(*epTally){
		"bin":  func(s *epTally) { s.bins[0]++ },
		"sum":  func(s *epTally) { s.sx += 1e-6 },
		"lost": func(s *epTally) { *s = epTally{} },
	} {
		ep := &EP{Pairs: 2048, PairCycles: 120, Seed: 1}
		_, err := app.Execute(lossyEP{ep, corrupt}, machine.Config{Kind: machine.Target, Topology: "full", P: 4}, app.Options{})
		if err == nil {
			t.Errorf("%s: Check accepted a corrupted merge", name)
		}
	}
}

func TestEPTalliesOncePerProcessor(t *testing.T) {
	for _, p := range []int{2, 4, 16} {
		ep, _ := runEP(t, machine.Target, p, 2048)
		if ep.tallies != p {
			t.Errorf("p=%d: tally ran %d times, want %d", p, ep.tallies, p)
		}
	}
}
