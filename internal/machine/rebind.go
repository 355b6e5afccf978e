package machine

import (
	"fmt"

	"spasm/internal/mem"
)

// Rebind attaches m, built by New for an earlier run, to a freshly set-up
// address space and resets its mutable state in place: the space pointer
// is swapped, the LogP and flow nets reset, the target fabric frees every
// link and port, and the coherence engine re-stamps every directory
// entry, zeroes every block lock and clears every cache.  What New built
// — route tables, fabric arrays, cache lines, directory chunks — is kept,
// which internal/runpool relies on to make a reused context's run
// observationally identical to its first.  A machine keeps the node count
// New gave it, and is not safe for concurrent use.
func Rebind(m Machine, space *mem.Space) error {
	if space.P() != m.P() {
		return fmt.Errorf("machine: rebind with %d nodes, machine built for %d", space.P(), m.P())
	}
	switch m := m.(type) {
	case *ideal:
		// Stateless: nothing to reset, no space reference held.
	case *logpMachine:
		m.space = space
		m.net.Reset()
	case *flowMachine:
		m.space = space
		m.net.Reset()
	case *cachedMachine:
		m.space = space
		if m.net != nil {
			m.net.Reset()
		}
		if m.fab != nil {
			m.fab.Reset()
		}
		m.eng.Reset(space)
	default:
		return fmt.Errorf("machine: cannot rebind %T", m)
	}
	return nil
}
