package spasm

import (
	"encoding/json"
	"sync"
	"testing"

	"spasm/internal/report"
	"spasm/internal/stats"
)

// TestTinyStress re-runs a Tiny workload many times in one process,
// checking that every run produces identical results.  Its real value is
// under `go test -race`: the kernel's direct process-to-process dispatch
// handoff (a goroutine that blocks pops the next event and resumes its
// owner) is exactly the kind of code where a missed happens-before edge
// would surface as a data race on engine state, and twenty full
// simulations give the detector plenty of handoffs to watch.
func TestTinyStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	var first []byte
	for i := 0; i < 20; i++ {
		res, err := Run("fft", Tiny, 1, Config{Kind: Target, Topology: "mesh", P: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		doc, err := json.Marshal(report.RunJSON(res))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first = doc
			continue
		}
		if string(doc) != string(first) {
			t.Fatalf("run %d produced different results than run 0", i)
		}
	}
}

// TestRunBatchStress hammers the batch scheduler under -race: several
// goroutines run overlapping batches — full of duplicate points — on
// sessions with multi-worker pools, while a shared RunPool serves
// concurrent RunSpecOn calls for the same configurations.  Every result must
// match the sequential fresh-context reference exactly.
func TestRunBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	points := []BatchPoint{
		{App: "fft", Config: Config{Kind: Target, Topology: "mesh", P: 8}},
		{App: "is", Config: Config{Kind: CLogP, Topology: "full", P: 4}},
		{App: "ep", Config: Config{Kind: LogP, Topology: "cube", P: 8}},
		{App: "fft", Config: Config{Kind: Target, Topology: "mesh", P: 8}}, // duplicate
		{App: "cg", Config: Config{Kind: Target, Topology: "full", P: 4}},
		{App: "is", Config: Config{Kind: CLogP, Topology: "full", P: 4}}, // duplicate
	}
	want := make([][]byte, len(points))
	for i, pt := range points {
		res, err := Run(pt.App, Tiny, 1, pt.Config)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(statsDoc(pt, res.Stats))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = doc
	}

	shared := NewRunPool(0)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		// Batch runners: separate sessions so nothing is served from a
		// session cache shared between goroutines.
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs, err := NewSession(Options{Scale: Tiny, Parallel: 3}).RunBatch(points)
			if err != nil {
				errs <- err
				return
			}
			for i, r := range runs {
				doc, err := json.Marshal(statsDoc(points[i], r))
				if err != nil {
					errs <- err
					return
				}
				if string(doc) != string(want[i]) {
					errs <- &batchMismatch{i: i}
					return
				}
			}
		}()
		// Pool hammerers: concurrent identical configurations against one
		// shared pool.
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				pt := points[(g+i)%len(points)]
				res, err := RunSpecOn(Spec{App: pt.App, Scale: Tiny, Machine: pt.Kind, Topology: pt.Topology, P: pt.P}, shared)
				if err != nil {
					errs <- err
					return
				}
				doc, err := json.Marshal(statsDoc(pt, res.Stats))
				if err != nil {
					errs <- err
					return
				}
				if string(doc) != string(want[(g+i)%len(points)]) {
					errs <- &batchMismatch{i: (g + i) % len(points)}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type batchMismatch struct{ i int }

func (e *batchMismatch) Error() string {
	return "batch point produced different results than the fresh reference"
}

// statsDoc projects a run's statistics into the deterministic RunDoc
// form for comparison (RunBatch returns stats only, so the doc is built
// from the point's identity plus the stats), mirroring report.RunJSON
// field for field.
func statsDoc(pt BatchPoint, r *RunStats) report.RunDoc {
	doc := report.RunDoc{
		Program:      pt.App,
		Machine:      pt.Kind.String(),
		Topology:     pt.Topology,
		P:            r.P(),
		TotalUS:      r.Total.Micros(),
		ComputeUS:    Time(r.Sum(stats.Compute)).Micros(),
		MemoryUS:     Time(r.Sum(stats.Memory)).Micros(),
		LatencyUS:    Time(r.Sum(stats.Latency)).Micros(),
		ContentionUS: Time(r.Sum(stats.Contention)).Micros(),
		SyncUS:       Time(r.Sum(stats.Sync)).Micros(),
		Reads:        r.Count(func(p *stats.Proc) uint64 { return p.Reads }),
		Writes:       r.Count(func(p *stats.Proc) uint64 { return p.Writes }),
		Hits:         r.Count(func(p *stats.Proc) uint64 { return p.Hits }),
		Misses:       r.Count(func(p *stats.Proc) uint64 { return p.Misses }),
		Messages:     r.Messages(),
		NetBytes:     r.Count(func(p *stats.Proc) uint64 { return p.NetBytes }),
		SimEvents:    r.SimEvents,
	}
	for i := range r.Procs {
		p := &r.Procs[i]
		doc.Procs = append(doc.Procs, report.ProcDoc{
			ID:       p.ID,
			FinishUS: p.Finish.Micros(),
			BusyUS:   p.Busy().Micros(),
		})
	}
	return doc
}
