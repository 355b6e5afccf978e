package spasm

// Parallel-execution determinism lock: the conservative parallel kernel
// (Spec.Workers > 1) must produce byte-identical report documents to the
// sequential kernel — same events, same clocks, same statistics — for
// every application, machine kind, and topology it accelerates, and must
// fall back (visibly, via Result.Par) on the kinds it cannot.  This is
// the subsystem's non-negotiable contract: parallelism is an execution
// detail, never a source of divergence.

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"spasm/internal/report"
)

// parallelCombos enumerates the (kind, topology) pairs the parallel
// kernel accelerates: the latency-bound machines across the full
// topology set, plus the ideal machine (which has no network at all).
func parallelCombos() []struct {
	kind Kind
	topo string
} {
	var combos []struct {
		kind Kind
		topo string
	}
	for _, kind := range []Kind{LogP, Flow} {
		for _, topo := range []string{"full", "cube", "mesh", "ring", "torus"} {
			combos = append(combos, struct {
				kind Kind
				topo string
			}{kind, topo})
		}
	}
	combos = append(combos, struct {
		kind Kind
		topo string
	}{Ideal, "full"})
	return combos
}

func TestParallelRunsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Tiny suite x machine/topology combos x worker counts")
	}
	pool := NewRunPool(0)
	for _, app := range Apps() {
		for _, c := range parallelCombos() {
			spec := Spec{App: app, Scale: Tiny, Machine: c.kind, Topology: c.topo, P: 8}
			seq, err := RunSpecOn(spec, pool)
			if err != nil {
				t.Fatalf("sequential %s on %v/%s: %v", app, c.kind, c.topo, err)
			}
			want, err := json.Marshal(report.RunJSON(seq))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				pspec := spec
				pspec.Workers = workers
				par, err := RunSpecOn(pspec, pool)
				if err != nil {
					t.Fatalf("parallel(%d) %s on %v/%s: %v", workers, app, c.kind, c.topo, err)
				}
				if par.Par == nil || !par.Par.Parallel {
					t.Fatalf("parallel(%d) %s on %v/%s did not run parallel: %+v",
						workers, app, c.kind, c.topo, par.Par)
				}
				got, err := json.Marshal(report.RunJSON(par))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("parallel(%d) %s on %v/%s diverged from sequential\nseq: %s\npar: %s",
						workers, app, c.kind, c.topo, want, got)
				}
			}
		}
	}
}

// TestParallelFallbackBitIdentical locks the other half of the contract:
// machine kinds whose minimum cross-process latency is zero (the
// coherence-modelling Target and CLogP) decline the parallel mode, record
// why, and still produce byte-identical results through the sequential
// path they fall back to.
func TestParallelFallbackBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("Tiny suite on the coherent machines")
	}
	pool := NewRunPool(0)
	for _, app := range Apps() {
		for _, kind := range []Kind{Target, CLogP} {
			spec := Spec{App: app, Scale: Tiny, Machine: kind, P: 8}
			seq, err := RunSpecOn(spec, pool)
			if err != nil {
				t.Fatalf("sequential %s on %v: %v", app, kind, err)
			}
			pspec := spec
			pspec.Workers = 4
			par, err := RunSpecOn(pspec, pool)
			if err != nil {
				t.Fatalf("workers=4 %s on %v: %v", app, kind, err)
			}
			if par.Par == nil {
				t.Fatalf("%s on %v: Workers=4 run carries no parallel report", app, kind)
			}
			if par.Par.Parallel {
				t.Fatalf("%s on %v ran parallel; coherent machines must fall back", app, kind)
			}
			if par.Par.Fallback == "" {
				t.Fatalf("%s on %v fell back without recording a reason", app, kind)
			}
			want, _ := json.Marshal(report.RunJSON(seq))
			got, _ := json.Marshal(report.RunJSON(par))
			if !bytes.Equal(got, want) {
				t.Fatalf("fallback %s on %v diverged from sequential\nseq: %s\nfb:  %s",
					app, kind, want, got)
			}
		}
	}
}

// TestWorkersOutsideSpecIdentity asserts the content-address contract:
// Workers is an execution knob, not run identity — it must not perturb
// Key or Hash.
func TestWorkersOutsideSpecIdentity(t *testing.T) {
	base := Spec{App: "fft", Scale: Tiny, Machine: LogP, P: 8}
	with := base
	with.Workers = 8
	if base.Key() != with.Key() {
		t.Fatalf("Workers leaked into Spec.Key:\n%s\n%s", base.Key(), with.Key())
	}
	if base.Hash() != with.Hash() {
		t.Fatalf("Workers leaked into Spec.Hash")
	}
	neg := base
	neg.Workers = -3
	if neg.Canonical().Workers != 0 {
		t.Fatalf("Canonical did not clamp negative Workers: %d", neg.Canonical().Workers)
	}
	bad := base
	bad.Workers = MaxWorkers + 1
	if err := bad.Validate(); err == nil {
		t.Fatalf("Validate accepted Workers=%d", bad.Workers)
	}
}

// TestParallelAbortChaos interrupts parallel runs mid-window — by
// wall-clock timeout and by cancellation at varying points — and checks
// the failure-containment contract holds in parallel mode exactly as it
// does sequentially: every simulated-process goroutine unwinds (no
// leaks), the aborted run's pooled context is discarded rather than
// returned, and a subsequent clean run on the same pool still produces
// bit-identical results.  Run with -race, this is also the drain
// transition's data-race gauntlet.
func TestParallelAbortChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated aborted runs")
	}
	base := runtime.NumGoroutine()
	pool := NewRunPool(0)
	spec := Spec{App: "cholesky", Scale: Tiny, Machine: LogP, Topology: "mesh", P: 8, Workers: 4}

	// Timeout sweep: deadlines from "immediately" to "well into the run"
	// catch the drain at different window depths.
	timeouts := 0
	for _, d := range []time.Duration{
		50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond,
		5 * time.Millisecond, 20 * time.Millisecond,
	} {
		_, _, err := Execute(spec, RunOptions{Pool: pool, Control: RunControl{Timeout: d}})
		switch {
		case err == nil: // deadline landed after completion
		case errors.Is(err, ErrRunTimeout):
			timeouts++
		default:
			t.Fatalf("timeout %v: unexpected error %v", d, err)
		}
	}
	if timeouts == 0 {
		t.Skip("no deadline fired before completion; host too slow to observe aborts")
	}

	// Cancellation mid-flight, raced from a second goroutine.
	cancels := 0
	for i := 0; i < 5; i++ {
		cancel := make(chan struct{})
		go func(delay time.Duration) {
			time.Sleep(delay)
			close(cancel)
		}(time.Duration(i) * 500 * time.Microsecond)
		_, _, err := Execute(spec, RunOptions{Pool: pool, Control: RunControl{Cancel: cancel}})
		switch {
		case err == nil:
		case errors.Is(err, ErrRunCanceled):
			cancels++
		default:
			t.Fatalf("cancel %d: unexpected error %v", i, err)
		}
	}

	st := pool.Stats()
	if want := timeouts + cancels; st.Discarded < want {
		t.Fatalf("pool discarded %d contexts, want >= %d (one per aborted run)", st.Discarded, want)
	}

	// The pool must still serve clean, bit-identical runs after the abuse.
	seq := spec
	seq.Workers = 0
	want, err := RunSpecOn(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpecOn(spec, pool)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(report.RunJSON(want))
	gotJSON, _ := json.Marshal(report.RunJSON(got))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("post-chaos parallel run diverged\nseq: %s\npar: %s", wantJSON, gotJSON)
	}

	// Every simulated-process goroutine must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after parallel aborts: %d live, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}
