package apps

import (
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

func runFFT(t *testing.T, kind machine.Kind, p, n int) (*FFT, *stats.Run) {
	t.Helper()
	f := &FFT{N: n, Seed: 1}
	res, err := app.Execute(f, machine.Config{Kind: kind, Topology: "full", P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f, res.Stats
}

func TestFFTCorrectOnEveryMachine(t *testing.T) {
	// Check() compares against an independent host FFT; run it under
	// each timing model.
	for _, kind := range machine.Kinds() {
		runFFT(t, kind, 4, 256)
	}
}

func TestFFTMatrixDecomposition(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		f, _ := runFFT(t, machine.Ideal, 2, n)
		if f.R*f.C != n {
			t.Errorf("n=%d: R*C = %d*%d", n, f.R, f.C)
		}
		if f.R > f.C {
			t.Errorf("n=%d: R=%d > C=%d", n, f.R, f.C)
		}
	}
}

func TestFFTOddLogDecomposition(t *testing.T) {
	f, _ := runFFT(t, machine.Ideal, 2, 512) // 2^9: R=16, C=32
	if f.R != 16 || f.C != 32 {
		t.Errorf("512 = %d x %d", f.R, f.C)
	}
}

func TestFFTRemoteReadsAreConsecutive(t *testing.T) {
	// The paper's observation: the communication phase reads
	// consecutive items, so on the cached machine the miss rate of
	// the transpose reads approaches 1/(items per block) = 1/4.
	_, run := runFFT(t, machine.CLogP, 4, 1024)
	misses := run.Count(func(q *stats.Proc) uint64 { return q.Misses })
	reads := run.Count(func(q *stats.Proc) uint64 { return q.Reads })
	if reads == 0 {
		t.Fatal("no reads")
	}
	rate := float64(misses) / float64(reads)
	// Both transposes miss at ~1/4 on their gather reads; local FFT
	// rows mostly hit.  Overall the rate must sit well below 1/2 and
	// above 1/20.
	if rate < 0.05 || rate > 0.5 {
		t.Errorf("miss rate %.3f outside the spatial-locality band", rate)
	}
}

func TestFFTPanicsWhenTooSmallForP(t *testing.T) {
	f := &FFT{N: 64, Seed: 1} // R=8: cannot split across 16 procs
	_, err := app.Execute(f, machine.Config{Kind: machine.Ideal, Topology: "full", P: 16}, app.Options{})
	if err == nil {
		t.Error("undersized FFT accepted")
	}
}

func TestFFTPhasesBarrierSeparated(t *testing.T) {
	f, run := runFFT(t, machine.Target, 4, 256)
	// 4 barriers per processor.
	ops := run.Count(func(q *stats.Proc) uint64 { return q.BarrierOps })
	if ops != 4*4 {
		t.Errorf("barrier ops = %d, want 16", ops)
	}
	_ = f
}

func TestFFTCommunicationGrowsWithP(t *testing.T) {
	// With more processors a larger fraction of each transpose is
	// remote: network accesses per processor-pair must grow.
	_, r2 := runFFT(t, machine.CLogP, 2, 1024)
	_, r8 := runFFT(t, machine.CLogP, 8, 1024)
	if r8.NetAccesses() <= r2.NetAccesses() {
		t.Errorf("net accesses p=8 (%d) not above p=2 (%d)",
			r8.NetAccesses(), r2.NetAccesses())
	}
}
