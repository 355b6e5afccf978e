package app

import (
	"fmt"
	"testing"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

func runPhased(t *testing.T, p int, kind machine.Kind, setup func(*Ctx), body func(*Proc)) *Result {
	t.Helper()
	prog := &testProg{name: "phased", setup: setup, body: body}
	res, err := Execute(prog, machine.Config{Kind: kind, Topology: "full", P: p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPhaseAttributionBasic(t *testing.T) {
	res := runPhased(t, 2, machine.Ideal,
		func(c *Ctx) {},
		func(p *Proc) {
			p.Phase("a")
			p.Compute(100)
			p.Phase("b")
			p.Compute(300)
		})
	pp := res.Phases
	if got := pp.order; fmt.Sprint(got) != "[a b]" {
		t.Fatalf("phases = %v", got)
	}
	a, b := pp.phases["a"], pp.phases["b"]
	if a.Time[stats.Compute] != 2*100*20 { // 2 procs x 100 cycles x 20 units
		t.Errorf("phase a compute = %v", a.Time[stats.Compute])
	}
	if b.Time[stats.Compute] != 2*300*20 {
		t.Errorf("phase b compute = %v", b.Time[stats.Compute])
	}
	if a.Visits != 2 || b.Visits != 2 {
		t.Errorf("visits a=%d b=%d", a.Visits, b.Visits)
	}
}

func TestPhaseWallCoversBody(t *testing.T) {
	res := runPhased(t, 4, machine.Ideal,
		func(c *Ctx) {},
		func(p *Proc) {
			p.Phase("only")
			p.Compute(int64(100 * (p.ID + 1)))
		})
	// Total wall across phases = sum of per-proc elapsed times.
	want := sim.Time((100 + 200 + 300 + 400) * 20)
	if got := res.Phases.phases["only"].Wall; got != want {
		t.Errorf("total wall = %v, want %v", got, want)
	}
}

func TestPhaseReentry(t *testing.T) {
	res := runPhased(t, 1, machine.Ideal,
		func(c *Ctx) {},
		func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Phase("loop")
				p.Compute(10)
				p.Phase("other")
				p.Compute(5)
			}
		})
	l := res.Phases.phases["loop"]
	if l.Visits != 3 || l.Time[stats.Compute] != 3*10*20 {
		t.Errorf("loop phase %+v", l)
	}
}

func TestNoPhasesNoProfile(t *testing.T) {
	res := runPhased(t, 2, machine.Ideal,
		func(c *Ctx) {},
		func(p *Proc) { p.Compute(10) })
	if got := res.Phases.Phases(); len(got) != 0 {
		t.Errorf("unexpected phases %v", got)
	}
}

func TestPhaseCapturesNetworkOverheads(t *testing.T) {
	var arr *mem.Array
	res := runPhased(t, 4, machine.Target,
		func(c *Ctx) { arr = c.Space.Alloc("x", 256, 8, mem.Blocked) },
		func(p *Proc) {
			p.Phase("local")
			lo, hi := arr.OwnerRange(p.ID)
			p.ReadRange(arr, lo, hi)
			p.Phase("remote")
			lo, hi = arr.OwnerRange((p.ID + 1) % 4)
			p.ReadRange(arr, lo, hi)
		})
	local := res.Phases.phases["local"]
	remote := res.Phases.phases["remote"]
	if local.Time[stats.Latency] != 0 {
		t.Errorf("local phase has latency %v", local.Time[stats.Latency])
	}
	if remote.Time[stats.Latency] == 0 {
		t.Error("remote phase has no latency")
	}
}
