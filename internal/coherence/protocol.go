package coherence

import "fmt"

// Protocol selects the invalidation-based coherence protocol variant.
//
// The paper's target machine runs the Berkeley ownership protocol; the
// discussion section argues (citing Wood et al.) that application
// performance is not very sensitive to the protocol choice, which is
// what licenses abstracting coherence overhead away.  The MSI variant
// exists to test that claim within this reproduction: same states minus
// ownership transfer — a dirty block is written back to its home on a
// read miss and memory supplies all subsequent readers.
type Protocol int

const (
	// Berkeley is the ownership protocol of the paper's target
	// machine: on a read miss the owning cache supplies the data
	// directly to the requester and retains ownership in the
	// shared-dirty state; memory is not updated until eviction.
	Berkeley Protocol = iota
	// MSI is the plain three-state invalidation protocol: a read miss
	// on a dirty block forces a writeback to the home memory, the
	// previous owner downgrades to a clean shared copy, and memory
	// supplies the requester.  No shared-dirty state exists.
	MSI
	// Update is a write-update protocol in the style of the DEC
	// Firefly: a write to a shared block propagates the new value to
	// every sharer (and the home memory) instead of invalidating, so
	// copies never go stale and readers never re-miss — at the price
	// of a data-sized update message per sharer per write.
	Update
)

func (p Protocol) String() string {
	switch p {
	case Berkeley:
		return "berkeley"
	case MSI:
		return "msi"
	case Update:
		return "update"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol converts "berkeley", "msi" or "update" to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "berkeley":
		return Berkeley, nil
	case "msi":
		return MSI, nil
	case "update":
		return Update, nil
	}
	return 0, fmt.Errorf("coherence: unknown protocol %q", s)
}
