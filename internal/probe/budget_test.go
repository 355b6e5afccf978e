package probe

import (
	"testing"

	"spasm/internal/sim"
)

// The link budget bounds per-epoch telemetry memory at large P: a
// 1024-node full topology has a million directed links, and the probe
// must not hold a sample per link per epoch.  These tests pin the
// folding semantics.

// budgetProfiler returns a profiler with n open epochs over a link id
// space of numLinks ids (the overflow aggregate sits at id numLinks),
// holding at most budget samples per epoch.
func budgetProfiler(n, budget, numLinks int) *Profiler {
	pr := New(Config{})
	pr.maxLinks, pr.numLinks = budget, numLinks
	pr.acc = &acc{head: make([]slot, numLinks), epochs: make([]epochAcc, 0, pr.maxEpochs)}
	if n > 0 {
		pr.epochAt(sim.Time(n-1) * pr.epochLen)
	}
	return pr
}

// link returns epoch ep's accumulator for link id under the budget.
func (pr *Profiler) link(ep, id int) *LinkSample {
	r := &pr.head[id]
	return pr.linkIn(&r, ep, id)
}

// held returns epoch ep's own sample for link id — the overflow
// aggregate for id numLinks — or nil.
func held(pr *Profiler, ep, id int) *LinkSample {
	e := &pr.epochs[ep]
	if id == pr.numLinks && e.ovfHeld {
		return &e.ovf
	}
	for k := range e.links {
		if e.links[k].Link == id {
			return &e.links[k].LinkSample
		}
	}
	return nil
}

// TestLinkBudgetFoldsOverflow checks that the first `budget` distinct
// ids get individual samples and everything after folds into the
// overflow aggregate at ovfID.
func TestLinkBudgetFoldsOverflow(t *testing.T) {
	const budget, ovfID = 4, 100
	pr := budgetProfiler(1, budget, ovfID)
	for id := 0; id < 10; id++ {
		pr.link(0, id).Messages++
	}
	if n := pr.epochs[0].held(); n != budget+1 {
		t.Fatalf("held %d samples; want %d individual + 1 overflow", n, budget)
	}
	for id := 0; id < budget; id++ {
		l := held(pr, 0, id)
		if l == nil || l.Messages != 1 {
			t.Errorf("link %d: want individual sample with 1 message, got %+v", id, l)
		}
	}
	ovf := held(pr, 0, ovfID)
	if ovf == nil || ovf.Messages != 10-budget {
		t.Errorf("overflow: want %d folded messages, got %+v", 10-budget, ovf)
	}
	// Ids already held keep accumulating individually even over budget.
	pr.link(0, 2).Messages++
	if held(pr, 0, 2).Messages != 2 {
		t.Errorf("held id stopped accumulating: %+v", held(pr, 0, 2))
	}
}

// TestLinkBudgetOverflowAlwaysAdmitted checks the aggregate itself is
// never refused, even when the epoch is exactly at budget.
func TestLinkBudgetOverflowAlwaysAdmitted(t *testing.T) {
	const budget, ovfID = 2, 50
	pr := budgetProfiler(1, budget, ovfID)
	pr.link(0, 7).Messages++
	pr.link(0, 8).Messages++
	l := pr.link(0, 9) // over budget: folds to ovfID
	if l.Link != ovfID {
		t.Fatalf("over-budget id landed on link %d; want overflow %d", l.Link, ovfID)
	}
	if n := pr.epochs[0].held(); n != budget+1 {
		t.Fatalf("held %d samples; want budget %d + overflow", n, budget)
	}
}

// TestMergeUnderBudgetDeterministic checks that merging two epochs whose
// union exceeds the budget keeps the lowest ids (ascending fold order),
// independent of the merged epoch's touch order, and that a link both
// epochs hold merges into one sample.
func TestMergeUnderBudgetDeterministic(t *testing.T) {
	const budget, ovfID = 3, 1000
	later := []int{7, 3, 2, 8}
	for trial := 0; trial < len(later); trial++ {
		pr := budgetProfiler(2, budget, ovfID)
		for _, id := range []int{5, 1, 9} {
			pr.link(0, id).Messages++
		}
		// The second epoch holds 5 first, then its other links in a
		// rotated order per trial.
		pr.link(1, 5).Messages++
		for k := range later {
			pr.link(1, later[(k+trial)%len(later)]).Messages++
		}
		pr.rescale()
		// Epoch 0 already holds {1,5,9}; the second epoch's 5 merges
		// into it, and its other ids fold in ascending order {2,3,7,8},
		// all over budget, so all land in the overflow.
		if ovf := held(pr, 0, ovfID); ovf == nil || ovf.Messages != 4 {
			t.Fatalf("trial %d: overflow %+v; want 4 folded messages", trial, held(pr, 0, ovfID))
		}
		for _, id := range []int{1, 5, 9} {
			want := uint64(1)
			if id == 5 {
				want = 2
			}
			if l := held(pr, 0, id); l == nil || l.Messages != want {
				t.Fatalf("trial %d: pre-held id %d: %+v, want %d messages", trial, id, l, want)
			}
		}
	}
}
