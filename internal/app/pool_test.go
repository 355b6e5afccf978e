package app

import (
	"testing"

	"spasm/internal/machine"
	"spasm/internal/mem"
)

func TestGetPutReuse(t *testing.T) {
	p := NewPool(0)
	cfg := machine.Config{Kind: machine.Target, Topology: "mesh", P: 8}

	c1, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Eng == nil || c1.Space == nil {
		t.Fatal("fresh context missing engine or space")
	}
	if c1.Space.P() != 8 {
		t.Fatalf("space built for P=%d, want 8", c1.Space.P())
	}
	p.Put(c1)

	// Same canonical configuration gets the same context back.
	c2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("idle context was not reused for an identical configuration")
	}
	p.Put(c2)

	// A different key must not share contexts.
	c3, err := p.Get(machine.Config{Kind: machine.Target, Topology: "cube", P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("contexts shared across distinct configuration keys")
	}
	p.Put(c3)

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Live != 2 {
		t.Fatalf("stats %+v, want hits 1, misses 2, live 2", st)
	}
}

// A nil pool keeps nothing: every Get builds a fresh context that binds
// a working machine, and Put and Discard drop it.
func TestNilPoolKeepsNothing(t *testing.T) {
	var p *Pool
	cfg := machine.Config{Kind: machine.Target, Topology: "mesh", P: 4}
	var prev *Ctx
	for run := 0; run < 2; run++ {
		c, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c == prev {
			t.Fatal("a nil pool handed out a context twice")
		}
		if c.Space.P() != 4 || c.Instrument != nil || c.feeds != nil {
			t.Fatalf("run %d: context not fresh: P=%d instrument=%v feeds=%v",
				run, c.Space.P(), c.Instrument, c.feeds)
		}
		c.Space.Alloc("x", 64, 8, mem.Blocked)
		m, err := c.bind()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind() != machine.Target || m.P() != 4 {
			t.Fatalf("bound %v with P=%d, want target with 4", m.Kind(), m.P())
		}
		c.Instrument = "left by the run"
		if run == 0 {
			p.Put(c)
		} else {
			p.Discard(c)
		}
		prev = c
	}
	if _, err := p.Get(machine.Config{Kind: machine.Ideal}); err == nil {
		t.Fatal("a nil pool's Get accepted a configuration with no processors")
	}
}

// Get rewinds the host arena: a reused context hands its program zeroed
// slices, cut from the storage the runs before it grew.
func TestGetRewindsHostArena(t *testing.T) {
	p := NewPool(0)
	cfg := machine.Config{Kind: machine.LogP, Topology: "full", P: 4}
	var last *float64
	for run := 0; run < 3; run++ {
		c, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := c.Host.Floats(64)
		for i, v := range x {
			if v != 0 {
				t.Fatalf("run %d: element %d handed out as %v", run, i, v)
			}
			x[i] = 1
		}
		if run == 2 && &x[0] != last {
			t.Fatal("a rerun of the same program did not reuse its host array")
		}
		last = &x[0]
		p.Put(c)
	}
}

func TestCanonicalKeying(t *testing.T) {
	p := NewPool(0)
	// Zero-value cost/network fields canonicalize to the defaults, so an
	// explicit-default configuration must hit the same pool slot.
	implicit := machine.Config{Kind: machine.LogP, Topology: "full", P: 4}
	explicit := implicit.Canonical()

	c1, err := p.Get(implicit)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	c2, err := p.Get(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("canonically equal configurations mapped to different pool keys")
	}
}

func TestIdleCap(t *testing.T) {
	p := NewPool(2)
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	var ctxs []*Ctx
	for i := 0; i < 4; i++ {
		c, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, c)
	}
	for _, c := range ctxs {
		p.Put(c)
	}
	st := p.Stats()
	if st.Live != 2 {
		t.Fatalf("idle cap 2 retained %d live contexts", st.Live)
	}

	// The retained contexts drain before anything new is built.
	for i := 0; i < 2; i++ {
		if _, err := p.Get(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Hits != 2 {
		t.Fatalf("draining the freelist recorded %d hits, want 2", st.Hits)
	}
}

func TestGetRejectsInvalidP(t *testing.T) {
	if _, err := NewPool(0).Get(machine.Config{Kind: machine.Ideal}); err == nil {
		t.Fatal("Get accepted a configuration with no processors")
	}
}

// TestDiscard: a discarded context leaves the pool entirely — it is not
// reusable, and the live count drops so leak checks see it gone.
func TestDiscard(t *testing.T) {
	p := NewPool(0)
	cfg := machine.Config{Kind: machine.Target, Topology: "mesh", P: 4}
	c1, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(c1)
	if st := p.Stats(); st.Live != 0 || st.Discarded != 1 {
		t.Fatalf("after discard: %+v, want live 0, discarded 1", st)
	}
	c2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("discarded context came back out of the pool")
	}
	p.Put(c2)
	p.Discard(nil) // harmless
}
