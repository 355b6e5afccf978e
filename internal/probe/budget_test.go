package probe

import "testing"

// The link budget bounds per-epoch telemetry memory at large P: a
// 1024-node full topology has a million directed links, and the probe
// must not hold a sample per link per epoch.  These tests pin the
// folding semantics.

// held returns e's sample for link id, or nil.
func held(e *epochAcc, id int) *LinkSample {
	l, _ := e.links.find(id)
	return l
}

// TestLinkBudgetFoldsOverflow checks that the first `budget` distinct
// ids get individual samples and everything after folds into the
// overflow aggregate at ovfID.
func TestLinkBudgetFoldsOverflow(t *testing.T) {
	const budget, ovfID = 4, 100
	e := &epochAcc{}
	for id := 0; id < 10; id++ {
		e.link(id, budget, ovfID).Messages++
	}
	if len(e.links.samples) != budget+1 {
		t.Fatalf("held %d samples; want %d individual + 1 overflow", len(e.links.samples), budget)
	}
	for id := 0; id < budget; id++ {
		l := held(e, id)
		if l == nil || l.Messages != 1 {
			t.Errorf("link %d: want individual sample with 1 message, got %+v", id, l)
		}
	}
	ovf := held(e, ovfID)
	if ovf == nil || ovf.Messages != 10-budget {
		t.Errorf("overflow: want %d folded messages, got %+v", 10-budget, ovf)
	}
	// Ids already held keep accumulating individually even over budget.
	e.link(2, budget, ovfID).Messages++
	if held(e, 2).Messages != 2 {
		t.Errorf("held id stopped accumulating: %+v", held(e, 2))
	}
}

// TestLinkBudgetOverflowAlwaysAdmitted checks the aggregate itself is
// never refused, even when the epoch is exactly at budget.
func TestLinkBudgetOverflowAlwaysAdmitted(t *testing.T) {
	const budget, ovfID = 2, 50
	e := &epochAcc{}
	e.link(7, budget, ovfID).Messages++
	e.link(8, budget, ovfID).Messages++
	l := e.link(9, budget, ovfID) // over budget: folds to ovfID
	if l.Link != ovfID {
		t.Fatalf("over-budget id landed on link %d; want overflow %d", l.Link, ovfID)
	}
	if len(e.links.samples) != budget+1 {
		t.Fatalf("held %d samples; want budget %d + overflow", len(e.links.samples), budget)
	}
}

// TestMergeUnderBudgetDeterministic checks that merging two epochs whose
// union exceeds the budget keeps the lowest ids (ascending fold order),
// independent of the merged epoch's touch order.
func TestMergeUnderBudgetDeterministic(t *testing.T) {
	const budget, ovfID = 3, 1000
	for trial := 0; trial < 8; trial++ {
		a := &epochAcc{}
		b := &epochAcc{}
		for _, id := range []int{5, 1, 9} {
			a.link(id, budget, ovfID).Messages++
		}
		for _, id := range []int{7, 3, 2, 8} {
			b.link(id, budget, ovfID).Messages++
		}
		a.merge(b, budget, ovfID)
		// a already holds {1,5,9}; b's ids fold in ascending order
		// {2,3,7,8}, all over budget, so all land in the overflow.
		if ovf := held(a, ovfID); ovf == nil || ovf.Messages != 4 {
			t.Fatalf("trial %d: overflow %+v; want 4 folded messages", trial, held(a, ovfID))
		}
		for _, id := range []int{1, 5, 9} {
			if l := held(a, id); l == nil || l.Messages != 1 {
				t.Fatalf("trial %d: pre-held id %d lost: %+v", trial, id, l)
			}
		}
	}
}
