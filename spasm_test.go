package spasm

import (
	"slices"
	"strings"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	res, err := Run("ep", Tiny, 1, Config{Kind: Target, Topology: "full", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Error("no simulated time")
	}
	if res.Stats.P() != 4 {
		t.Errorf("P = %d", res.Stats.P())
	}
}

func TestFacadeLists(t *testing.T) {
	if len(Apps()) != 5 {
		t.Errorf("apps = %v", Apps())
	}
	if len(Machines()) != 5 {
		t.Errorf("machines = %v", Machines())
	}
	if len(Figures()) != 20 {
		t.Errorf("%d figures", len(Figures()))
	}
}

func TestFacadeFigurePipeline(t *testing.T) {
	s := NewSession(Options{Scale: Tiny, Procs: []int{2, 4}})
	fig, err := FigureByNumber(3)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := s.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	if out := FigureTable(fr); !strings.Contains(out, "Figure 3") {
		t.Errorf("table:\n%s", out)
	}
	if out := FigureCSV(fr); !strings.Contains(out, "3,ep,full,latency") {
		t.Errorf("csv:\n%s", out)
	}
	if out := FigureChart(fr, 70, 18); !strings.Contains(out, "T=Target") {
		t.Errorf("chart:\n%s", out)
	}
}

func TestFacadeGapHelpers(t *testing.T) {
	rows := GapTable([]int{16})
	if len(rows) != 3 {
		t.Errorf("gap rows = %d", len(rows))
	}
	ab, err := GapAblation(NewSession(Options{Scale: Tiny, Procs: []int{4}}))
	if err != nil || len(ab) != 1 {
		t.Errorf("ablation: %v, %v", ab, err)
	}
}

// customProgram exercises the program-authoring API through the facade
// aliases only — what an external user of the library would write.
type customProgram struct {
	arr *Array
	bar *Barrier
	sum int
}

func (c *customProgram) Name() string { return "custom" }
func (c *customProgram) Setup(ctx *Ctx) {
	c.arr = ctx.Space.Alloc("data", 64, 8, Blocked)
	c.bar = ctx.NewBarrier("bar", ctx.P, 0)
}
func (c *customProgram) Body(p *Proc) {
	lo, hi := p.ID*16, (p.ID+1)*16
	p.ReadRange(c.arr, lo, hi)
	p.Compute(100)
	c.sum += hi - lo
	c.bar.Arrive(p)
}
func (c *customProgram) Check() error { return nil }

func TestFacadeCustomProgram(t *testing.T) {
	prog := &customProgram{}
	res, err := RunProgram(prog, Config{Kind: CLogP, Topology: "cube", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if prog.sum != 64 {
		t.Errorf("sum = %d", prog.sum)
	}
	if res.Stats.Sum(Compute) <= 0 {
		t.Error("no compute time")
	}
}

func TestFacadeExtendedApps(t *testing.T) {
	if got, want := ExtendedApps(), []string{"hotspot", "mg", "neighbor", "uniform"}; !slices.Equal(got, want) {
		t.Errorf("ExtendedApps() = %v, want %v", got, want)
	}
	res, err := Run("mg", Tiny, 1, Config{Kind: CLogP, Topology: "cube", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Error("empty mg run")
	}
	if _, err := Run("nope", Tiny, 1, Config{Kind: Ideal, P: 2}); err == nil {
		t.Error("unknown extended workload accepted")
	}
}

func TestFacadeParsers(t *testing.T) {
	if k, err := ParseKind("clogp"); err != nil || k != CLogP {
		t.Errorf("ParseKind = %v, %v", k, err)
	}
	if _, err := ParseKind("z80"); err == nil {
		t.Error("bad kind accepted")
	}
	if s, err := ParseScale("medium"); err != nil || s != Medium {
		t.Errorf("ParseScale = %v, %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
	got, err := ParseProcs(" 2, 4,8 ")
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 8 {
		t.Errorf("ParseProcs = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "4,-1", "0"} {
		if _, err := ParseProcs(bad); err == nil {
			t.Errorf("ParseProcs(%q) accepted", bad)
		}
	}
}

func TestMicrosAlias(t *testing.T) {
	if Micros(1.6) != 1056 {
		t.Error("Micros alias broken")
	}
}
