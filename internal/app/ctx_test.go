package app_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/probe"
	"spasm/internal/report"
)

// spy profiles a run and keeps the context it attached to, with the
// instrument slot as it found it there.
type spy struct {
	*probe.Profiler
	ctx   *app.Ctx
	found any
}

func (s *spy) Attach(c *app.Ctx) {
	s.ctx, s.found = c, c.Instrument
	s.Profiler.Attach(c)
}

// profiled is one run of a workload: its RunDoc and encoded profile
// bytes, what its processors issued, and the spy that watched it.
type profiled struct {
	doc, profile []byte
	issued       []app.Tally
	spy          *spy
}

func runProfiled(t *testing.T, pool *app.Pool, cfg machine.Config, name string, seed int64) profiled {
	t.Helper()
	prog, err := apps.Lookup(name, apps.Tiny, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := &spy{Profiler: probe.New(probe.Config{})}
	res, err := app.Execute(prog, cfg, app.Options{Pool: pool, Instrument: s})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	doc, err := json.Marshal(report.RunJSON(res))
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if _, err := s.Profile().Encode(&prof); err != nil {
		t.Fatal(err)
	}
	return profiled{doc: doc, profile: prof.Bytes(), issued: slices.Clone(s.ctx.Issued), spy: s}
}

// TestOneContextServesEveryRun: a stream, a paper application and the
// stream again at another seed, in turn on one pooled context, each give
// the RunDoc, profile and Issued of a fresh context — so checkout clears
// what a stream left in the feeds and Issued, and what a paper
// application did not touch stays out of the next stream's way.  Every
// profiled rerun finds the instrument slot as the run before it left it;
// a fresh context's slot is nil.
func TestOneContextServesEveryRun(t *testing.T) {
	cfg := machine.Config{Kind: machine.LogP, Topology: "cube", P: 16}
	pool := app.NewPool(1)
	var last *app.Ctx
	var left any
	for i, run := range []struct {
		name string
		seed int64
	}{{"uniform", 1}, {"fft", 1}, {"uniform", 2}} {
		fresh := runProfiled(t, nil, cfg, run.name, run.seed)
		if fresh.spy.found != nil {
			t.Errorf("%s: a fresh context's instrument slot holds %T", run.name, fresh.spy.found)
		}
		pooled := runProfiled(t, pool, cfg, run.name, run.seed)
		if !bytes.Equal(pooled.doc, fresh.doc) {
			t.Errorf("%s seed %d, run %d on the context: RunDoc differs from fresh\nfresh:  %s\npooled: %s",
				run.name, run.seed, i, fresh.doc, pooled.doc)
		}
		if !bytes.Equal(pooled.profile, fresh.profile) {
			t.Errorf("%s seed %d, run %d on the context: profile differs from fresh", run.name, run.seed, i)
		}
		if !slices.Equal(pooled.issued, fresh.issued) {
			t.Errorf("%s seed %d, run %d on the context: issued %v, fresh %v",
				run.name, run.seed, i, pooled.issued, fresh.issued)
		}
		if (run.name == "uniform") != (len(fresh.issued) == cfg.P) {
			t.Errorf("%s: a fresh context's Issued has %d tallies", run.name, len(fresh.issued))
		}
		if i > 0 && pooled.spy.ctx != last {
			t.Fatalf("run %d took another context", i)
		}
		if pooled.spy.found != left {
			t.Errorf("%s, run %d on the context: the instrument slot holds %v, the run before left %v",
				run.name, i, pooled.spy.found, left)
		}
		last, left = pooled.spy.ctx, pooled.spy.ctx.Instrument
	}
	if left == nil {
		t.Error("a profiled run left nothing in the instrument slot")
	}
	if st := pool.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("pool %+v, want one context serving all three runs", st)
	}
}
