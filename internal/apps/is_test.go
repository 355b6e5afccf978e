package apps

import (
	"sort"
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

func runIS(t *testing.T, kind machine.Kind, p, n, k int) (*IS, *stats.Run) {
	t.Helper()
	is := &IS{N: n, K: k, Seed: 1}
	res, err := app.Execute(is, machine.Config{Kind: kind, Topology: "full", P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return is, res.Stats
}

func TestISSortsOnEveryMachine(t *testing.T) {
	for _, kind := range machine.Kinds() {
		runIS(t, kind, 4, 512, 64)
	}
}

func TestISRanksAreStableSort(t *testing.T) {
	is, _ := runIS(t, machine.Ideal, 4, 1024, 32)
	// Reconstruct the permutation and verify it equals a stable sort
	// by key value.
	type kv struct {
		key  int64
		rank int64
	}
	items := make([]kv, is.N)
	for i := range items {
		items[i] = kv{is.keyv[i], is.rankv[i]}
	}
	sorted := append([]kv(nil), items...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].key < sorted[b].key })
	for want, it := range sorted {
		if it.rank != int64(want) {
			t.Fatalf("stable-sort position %d has rank %d", want, it.rank)
		}
	}
}

func TestISKeyDistributionRoughlyGaussian(t *testing.T) {
	is, _ := runIS(t, machine.Ideal, 2, 4096, 256)
	// Average-of-four-uniforms: the middle half of the range must
	// hold clearly more than half the keys.
	mid := 0
	for _, k := range is.keyv {
		if k >= 64 && k < 192 {
			mid++
		}
	}
	if mid < len(is.keyv)*60/100 {
		t.Errorf("only %d/%d keys in the middle half", mid, len(is.keyv))
	}
}

func TestISUsesLocks(t *testing.T) {
	_, run := runIS(t, machine.Target, 4, 512, 64)
	if ops := run.Count(func(q *stats.Proc) uint64 { return q.LockOps }); ops == 0 {
		t.Error("IS acquired no locks")
	}
}

func TestISRankingPhaseCommunicates(t *testing.T) {
	// Phase 4's scattered offset reads are the communication-heavy
	// part: on the cache-less machine, IS must produce far more
	// network accesses than on the cached one.
	_, lp := runIS(t, machine.LogP, 4, 1024, 128)
	_, cl := runIS(t, machine.CLogP, 4, 1024, 128)
	if lp.NetAccesses() < 2*cl.NetAccesses() {
		t.Errorf("LogP accesses %d not >= 2x CLogP %d", lp.NetAccesses(), cl.NetAccesses())
	}
}

func TestISSerialPrefixPhase(t *testing.T) {
	// Processor 0 performs the prefix sum; its reference count must
	// exceed the others' by about K reads+writes.
	_, run := runIS(t, machine.Ideal, 4, 512, 128)
	p0 := run.Procs[0].Reads + run.Procs[0].Writes
	p1 := run.Procs[1].Reads + run.Procs[1].Writes
	if p0 <= p1 {
		t.Errorf("prefix phase invisible: p0 refs %d <= p1 refs %d", p0, p1)
	}
}
