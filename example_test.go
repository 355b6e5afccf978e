package spasm_test

import (
	"fmt"

	"spasm"
)

// Running one application on the detailed target machine and reading the
// overhead separation.
func ExampleRun() {
	res, err := spasm.Run("ep", spasm.Tiny, 1, spasm.Config{
		Kind:     spasm.Target,
		Topology: "full",
		P:        4,
	})
	if err != nil {
		panic(err)
	}
	r := res.Stats
	fmt.Printf("processors: %d\n", r.P())
	fmt.Printf("reads+writes: %d\n",
		r.Count(func(p *spasm.ProcStats) uint64 { return p.Reads + p.Writes }))
	fmt.Printf("deterministic: %v\n", r.Total > 0)
	// Output:
	// processors: 4
	// reads+writes: 220
	// deterministic: true
}

// Profiling a run over simulated time and locating the epoch where
// network contention peaked.
func ExampleExecute() {
	_, prof, err := spasm.Execute(spasm.Spec{
		App:      "ep",
		Scale:    spasm.Tiny,
		Machine:  spasm.Target,
		Topology: "mesh",
		P:        4,
	}, spasm.RunOptions{Profile: &spasm.ProfileConfig{}})
	if err != nil {
		panic(err)
	}
	epoch, total := prof.Peak(spasm.Contention)
	fmt.Printf("epochs: %d x %v\n", len(prof.Epochs), prof.EpochLen)
	fmt.Printf("peak contention: epoch %d (t=%v), %v\n",
		epoch, prof.EpochStart(epoch), total)
	// Output:
	// epochs: 35 x 10.000us
	// peak contention: epoch 23 (t=230.000us), 12.939us
}

// Computing the paper's g parameter table (section 5).
func ExampleGapTable() {
	for _, row := range spasm.GapTable([]int{16}) {
		fmt.Printf("%s: %.3f us\n", row.Topology, row.G.Micros())
	}
	// Output:
	// full: 0.200 us
	// cube: 1.600 us
	// mesh: 3.200 us
}

// Regenerating a paper figure as CSV.
func ExampleSession_Figure() {
	s := spasm.NewSession(spasm.Options{Scale: spasm.Tiny, Procs: []int{4}})
	fig, _ := spasm.FigureByNumber(3) // EP on Full: Latency
	fr, err := s.Figure(fig)
	if err != nil {
		panic(err)
	}
	fmt.Println(fig.Caption())
	fmt.Printf("series: %d, points per series: %d\n",
		len(fr.Series), len(fr.Series[0].Points))
	// Output:
	// EP on Full: Latency
	// series: 3, points per series: 1
}

// Writing a custom application against the Proc API.
func ExampleRunProgram() {
	prog := &sumProgram{n: 64}
	res, err := spasm.RunProgram(prog, spasm.Config{
		Kind: spasm.CLogP, Topology: "cube", P: 4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sum: %d\n", prog.total)
	fmt.Printf("simulated: %v\n", res.Stats.Total > 0)
	// Output:
	// sum: 2016
	// simulated: true
}

// Recording an application's reference trace and replaying it on a
// different machine characterization (trace-driven simulation).
func ExampleRecordTrace() {
	tr, _, err := spasm.RecordTrace("is", spasm.Tiny, 1, spasm.Config{
		Kind: spasm.CLogP, Topology: "full", P: 4,
	})
	if err != nil {
		panic(err)
	}
	res, err := spasm.ReplayTrace(tr, spasm.Config{
		Kind: spasm.Target, Topology: "mesh", P: 4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("replayed %d events: %v\n", len(tr.Events), res.Stats.Total > 0)
	// Output:
	// replayed 2204 events: true
}

// Running the section-7 gap-discipline ablation.
func ExampleGapAblation() {
	rows, err := spasm.GapAblation(spasm.NewSession(spasm.Options{Scale: spasm.Tiny, Procs: []int{8}}))
	if err != nil {
		panic(err)
	}
	r := rows[0]
	fmt.Printf("per-class gap closer to target: %v\n",
		r.PerClassGap-r.Target < r.CombinedGap-r.Target)
	// Output:
	// per-class gap closer to target: true
}

// Comparing coherence protocols on the same directory engine.
func ExampleProtocolComparison() {
	rows, err := spasm.ProtocolComparison(spasm.NewSession(spasm.Options{Scale: spasm.Tiny}), "full", 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("apps compared: %d\n", len(rows))
	// Output:
	// apps compared: 5
}

// sumProgram sums 0..n-1 with each processor reducing its own block into
// a lock-guarded shared total.
type sumProgram struct {
	n     int
	arr   *spasm.Array
	lock  *spasm.SpinLock
	total int
}

func (s *sumProgram) Name() string { return "sum" }

func (s *sumProgram) Setup(c *spasm.Ctx) {
	s.arr = c.Space.Alloc("data", s.n, 8, spasm.Blocked)
	s.lock = c.NewLock("lock", 0)
}

func (s *sumProgram) Body(p *spasm.Proc) {
	per := s.n / p.Ctx.P
	lo := p.ID * per
	part := 0
	p.ReadRange(s.arr, lo, lo+per)
	for i := lo; i < lo+per; i++ {
		part += i
	}
	p.Compute(int64(per))
	s.lock.Lock(p)
	s.total += part
	s.lock.Unlock(p)
}

func (s *sumProgram) Check() error { return nil }
