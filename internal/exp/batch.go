package exp

import (
	"sync"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

// BatchPoint is one simulation of an experiment: an application on a
// machine configuration, at the session's scale and seed.
type BatchPoint struct {
	App string
	machine.Config
}

// key is the point's cache identity: two points that build identical
// machines share it.
func (b BatchPoint) key() BatchPoint { return BatchPoint{b.App, b.Config.Canonical()} }

// point is the sweep point of a machine with the paper's parameters.
func point(appName, topo string, kind machine.Kind, p int) BatchPoint {
	return BatchPoint{appName, machine.Config{Kind: kind, Topology: topo, P: p}}
}

// RunBatch executes a set of sweep points on a bounded worker pool
// (Options.Parallel workers; 1 when unset) and returns their statistics
// in input order: out[i] is the result for points[i], whatever order the
// workers finished in.  Duplicate points and points already in the
// session cache are simulated once.  Workers draw run contexts from the
// session's shared pool (app.Pool) — each context belongs to one
// worker between checkout and return, so a sweep pays machine
// construction roughly once per configuration, not once per run, and
// the pool's idle cap bounds peak memory on sweeps spanning many
// configurations.
//
// Every simulation is single-threaded and a pure function of its
// combination, so results are bit-identical regardless of worker count
// or scheduling.  All points are attempted even after a failure; the
// returned error is the first failing point's, in batch order, and
// successful results are still cached in the session.
func (s *Session) RunBatch(points []BatchPoint) ([]*stats.Run, error) {
	out := make([]*stats.Run, len(points))

	// Resolve session-cache hits and dedupe the remainder, keeping
	// first-appearance order so error selection is deterministic.
	type job struct {
		pt  BatchPoint
		dst []int // positions in out to fill
	}
	var jobs []*job
	index := map[BatchPoint]*job{}
	for i, pt := range points {
		k := pt.key()
		if r, ok := s.lookup(k); ok {
			out[i] = r
			continue
		}
		j, ok := index[k]
		if !ok {
			j = &job{pt: pt}
			index[k] = j
			jobs = append(jobs, j)
		}
		j.dst = append(j.dst, i)
	}
	if len(jobs) == 0 {
		return out, nil
	}

	workers := s.opt.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]*stats.Run, len(jobs))
	errs := make([]error, len(jobs))
	work := make(chan int, len(jobs))
	for j := range jobs {
		work <- j
	}
	close(work)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				pt := jobs[j].pt
				r, err := s.simulate(pt)
				if err != nil {
					errs[j] = err
					continue
				}
				results[j] = r
				s.store(pt.key(), r)
			}
		}()
	}
	wg.Wait()

	for j, jb := range jobs {
		if errs[j] != nil {
			return out, errs[j]
		}
		for _, i := range jb.dst {
			out[i] = results[j]
		}
	}
	return out, nil
}

// simulate executes one point, bypassing the session cache: the
// experiment layer's one call into the simulator.  With a Runner
// injected (the service layer) the point is delegated to it; otherwise
// the program is built and run locally on the session's context pool.
func (s *Session) simulate(pt BatchPoint) (*stats.Run, error) {
	if s.opt.Runner != nil {
		return s.opt.Runner(pt)
	}
	// Ad-hoc figures and studies may run the extension workloads too.
	prog, err := apps.Lookup(pt.App, s.opt.Scale, s.opt.Seed)
	if err != nil {
		return nil, err
	}
	res, err := app.Execute(prog, pt.Config, app.Options{Pool: s.pool})
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}
