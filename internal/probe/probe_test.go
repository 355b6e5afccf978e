package probe_test

import (
	"testing"

	"spasm"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// profiledCases are the (application, machine) pairs the accounting
// tests sweep: a compute-bound workload and a communication-bound one,
// each on the detailed target machine and on the abstracted LogP
// machine.
var profiledCases = []struct {
	app  string
	kind spasm.Kind
	topo string
	p    int
}{
	{"ep", spasm.Target, "mesh", 4},
	{"ep", spasm.LogP, "mesh", 4},
	{"fft", spasm.Target, "mesh", 8},
	{"fft", spasm.LogP, "mesh", 8},
}

// TestEpochAccounting checks the probe's central invariant: for every
// processor and every bucket and counter, the per-epoch deltas sum
// exactly to the run's aggregate statistics.
func TestEpochAccounting(t *testing.T) {
	for _, tc := range profiledCases {
		t.Run(tc.app+"/"+tc.kind.String(), func(t *testing.T) {
			cfg := spasm.Config{Kind: tc.kind, Topology: tc.topo, P: tc.p}
			res, prof, err := runProfiled(tc.app, cfg, spasm.ProfileConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if prof.Total != res.Stats.Total {
				t.Errorf("profile total %v != run total %v", prof.Total, res.Stats.Total)
			}
			for i := range res.Stats.Procs {
				st := &res.Stats.Procs[i]
				var got stats.Proc
				for e := range prof.Epochs {
					s := &prof.Epochs[e].Procs[i]
					for b := range s.Buckets {
						got.Time[b] += s.Buckets[b]
					}
					got.Reads += s.Reads
					got.Writes += s.Writes
					got.Hits += s.Hits
					got.Misses += s.Misses
					got.Messages += s.Messages
					got.Invals += s.Invals
					got.Writebacks += s.Writebacks
				}
				for b := range st.Time {
					if got.Time[b] != st.Time[b] {
						t.Errorf("proc %d bucket %v: epoch sum %v != aggregate %v",
							i, stats.Bucket(b), got.Time[b], st.Time[b])
					}
				}
				if got.Reads != st.Reads || got.Writes != st.Writes {
					t.Errorf("proc %d references: epoch sums %d/%d != aggregates %d/%d",
						i, got.Reads, got.Writes, st.Reads, st.Writes)
				}
				if got.Hits != st.Hits || got.Misses != st.Misses {
					t.Errorf("proc %d cache: epoch sums %d/%d != aggregates %d/%d",
						i, got.Hits, got.Misses, st.Hits, st.Misses)
				}
				if got.Messages != st.Messages {
					t.Errorf("proc %d messages: epoch sum %d != aggregate %d",
						i, got.Messages, st.Messages)
				}
				if got.Invals != st.Invals || got.Writebacks != st.Writebacks {
					t.Errorf("proc %d coherence: epoch sums %d/%d != aggregates %d/%d",
						i, got.Invals, got.Writebacks, st.Invals, st.Writebacks)
				}
			}
		})
	}
}

// TestProfilingDoesNotPerturb checks that attaching the probe changes
// nothing about the simulation itself: the profiled run's statistics
// are identical to an unprofiled run of the same spec.
func TestProfilingDoesNotPerturb(t *testing.T) {
	for _, tc := range profiledCases {
		t.Run(tc.app+"/"+tc.kind.String(), func(t *testing.T) {
			cfg := spasm.Config{Kind: tc.kind, Topology: tc.topo, P: tc.p}
			profiled, _, err := runProfiled(tc.app, cfg, spasm.ProfileConfig{})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := spasm.Run(tc.app, spasm.Tiny, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if profiled.Stats.Total != plain.Stats.Total {
				t.Errorf("profiled total %v != plain total %v",
					profiled.Stats.Total, plain.Stats.Total)
			}
			for i := range plain.Stats.Procs {
				a, b := &profiled.Stats.Procs[i], &plain.Stats.Procs[i]
				if a.Time != b.Time || a.Finish != b.Finish {
					t.Errorf("proc %d: profiled buckets %v (finish %v) != plain %v (finish %v)",
						i, a.Time, a.Finish, b.Time, b.Finish)
				}
				if a.Misses != b.Misses || a.Messages != b.Messages {
					t.Errorf("proc %d: profiled counters diverge from plain run", i)
				}
			}
		})
	}
}

// TestLinkOccupancy checks the target-machine link series: occupancy is
// bounded by the epoch length, link ids are valid and sorted, and the
// per-epoch histograms account for every fabric transmission.
func TestLinkOccupancy(t *testing.T) {
	res, prof, err := runProfiled("fft", spasm.Config{Kind: spasm.Target, Topology: "mesh", P: 8}, spasm.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumLinks == 0 {
		t.Fatal("target machine profile has no link id space")
	}
	var hist uint64
	for e := range prof.Epochs {
		prev := -1
		for _, l := range prof.Epochs[e].Links {
			if l.Link <= prev {
				t.Fatalf("epoch %d: link ids not strictly sorted (%d after %d)", e, l.Link, prev)
			}
			prev = l.Link
			if l.Link >= prof.NumLinks {
				t.Fatalf("epoch %d: link id %d out of range [0,%d)", e, l.Link, prof.NumLinks)
			}
			if l.Busy < 0 || l.Busy > prof.EpochLen {
				t.Fatalf("epoch %d link %d: busy %v outside [0, %v]", e, l.Link, l.Busy, prof.EpochLen)
			}
		}
		hist += prof.Epochs[e].Messages()
	}
	if msgs := res.Stats.Messages(); hist != msgs {
		t.Errorf("histogram counted %d messages, run sent %d", hist, msgs)
	}
}

// TestResolutionCoarsening checks the epoch budget: a tight MaxEpochs
// forces pairwise merges, and the merged profile still reconciles.
func TestResolutionCoarsening(t *testing.T) {
	cfg := spasm.Config{Kind: spasm.Target, Topology: "mesh", P: 8}
	res, fine, err := runProfiled("fft", cfg, spasm.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, coarse, err := runCapped("fft", cfg, spasm.ProfileConfig{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse.Epochs) > 8 {
		t.Errorf("MaxEpochs=8 produced %d epochs", len(coarse.Epochs))
	}
	if coarse.EpochLen <= fine.EpochLen {
		t.Errorf("coarse epoch length %v not above fine %v", coarse.EpochLen, fine.EpochLen)
	}
	for b := range res.Stats.Procs[0].Time {
		want := res.Stats.Sum(stats.Bucket(b))
		var got sim.Time
		for i := range coarse.Epochs {
			got += coarse.EpochSum(i, stats.Bucket(b))
		}
		if got != want {
			t.Errorf("coarse profile bucket %v sum %v != aggregate %v", stats.Bucket(b), got, want)
		}
	}
}
