package machine

import (
	"fmt"

	"spasm/internal/mem"
)

// Reusable is a machine that can be rebound to a freshly set-up address
// space run after run, resetting its mutable state in place instead of
// being rebuilt.  Construction cost — topology route tables, fabric
// resource arrays, per-node cache line arrays, directory chunks — is
// paid once, on the first Bind; every later Bind only clears or
// re-stamps state, which internal/runpool relies on to make pooled runs
// observationally identical to fresh ones.
//
// A Reusable is tied to one configuration and one node count for its
// whole life.  It is not safe for concurrent use; a pool hands each
// context to one worker at a time.
type Reusable struct {
	cfg Config
	p   int // node count fixed by the first Bind
	m   Machine
}

// NewReusable returns a reusable machine for the given configuration.
// No machine is built until the first Bind — construction needs the
// address space, which only exists after an application's Setup runs.
func NewReusable(cfg Config) *Reusable {
	return &Reusable{cfg: cfg.Canonical()}
}

// Bind returns the machine attached to space.  The first call builds it
// with New; subsequent calls reset the existing machine in place — the
// address space pointer is swapped (the new run's Setup laid out memory
// afresh) and each mutable component is returned to its post-construction
// state: the LogP net re-stamps its port slots to -g, the target fabric
// frees all links and ports, and the coherence engine re-stamps every
// directory entry, zeroes every block lock, and clears every cache.
func (r *Reusable) Bind(space *mem.Space) (Machine, error) {
	if r.m == nil {
		m, err := New(r.cfg, space)
		if err != nil {
			return nil, err
		}
		r.m = m
		r.p = space.P()
		return m, nil
	}
	if space.P() != r.p {
		return nil, fmt.Errorf("machine: rebind with %d nodes, machine built for %d", space.P(), r.p)
	}
	switch m := r.m.(type) {
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
		return nil, fmt.Errorf("machine: cannot rebind %T", r.m)
	}
	return r.m, nil
}
