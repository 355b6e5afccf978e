package spasm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/probe"
	"spasm/internal/report"
)

// TestStreamDriversSameBytes: a reference stream on LogP runs on one of
// two drivers — stackless step functions, or the same generator behind
// blocking Read/Write on a coroutine per processor — chosen by the runner
// from the run's own shape.  Whichever runs, the result document and the
// encoded profile are the same bytes.  Here every stream program runs all
// three ways a run can be shaped: plain (stackless), behind an identity
// machine decorator (blocking), and with two workers requested (blocking,
// in the parallel mode unless profiled).  A driver that drifts fails this
// by a byte.  The last shape is the benchmark's largest, where a
// processor's state is cold at every event; there uniform alone runs,
// stackless and decorated.
func TestStreamDriversSameBytes(t *testing.T) {
	shapes := []struct {
		topo string
		p    int
	}{{"full", 8}, {"torus", 256}, {"cube", 1024}, {"cube", 4096}}
	if testing.Short() {
		shapes = shapes[:2]
	}
	const largest = 4096
	identity := func(m machine.Machine) machine.Machine { return struct{ machine.Machine }{m} }
	drivers := []struct {
		name string
		opt  app.Options
	}{
		{"stackless", app.Options{}},
		{"decorated", app.Options{Wrap: identity}},
		{"two workers", app.Options{Workers: 2}},
	}
	for _, name := range streamWorkloads(t) {
		for _, shape := range shapes {
			for _, ports := range []PortMode{CombinedGap, PerClassGap} {
				cfg := Config{Kind: LogP, Topology: shape.topo, P: shape.p, PortMode: ports}
				at := fmt.Sprintf("%s on logp/%s p%d %v", name, shape.topo, shape.p, ports)
				var wantDoc, wantProfile []byte
				for _, d := range drivers {
					if shape.p == largest && (name != "uniform" || d.opt.Workers > 1) {
						continue
					}
					for _, profiled := range []bool{false, true} {
						opt := d.opt
						var pr *probe.Profiler
						if profiled {
							pr = probe.New(probe.Config{})
							opt.Instrument = pr
						}
						res, err := app.Execute(lookup(t, name, 1), cfg, opt)
						if err != nil {
							t.Fatalf("%s, %s: %v", at, d.name, err)
						}
						if d.opt.Workers > 1 && !profiled && !res.Par.Parallel {
							t.Errorf("%s: the requested parallel run executed sequentially (%+v)", at, res.Par)
						}
						doc, err := json.Marshal(report.RunJSON(res))
						if err != nil {
							t.Fatal(err)
						}
						if wantDoc == nil {
							wantDoc = doc
						}
						if !bytes.Equal(doc, wantDoc) {
							t.Errorf("%s: the %s run's document differs from the stackless run's\n got %s\nwant %s", at, d.name, doc, wantDoc)
						}
						if !profiled {
							continue
						}
						var enc bytes.Buffer
						if _, err := pr.Profile().Encode(&enc); err != nil {
							t.Fatal(err)
						}
						if wantProfile == nil {
							wantProfile = enc.Bytes()
						}
						if !bytes.Equal(enc.Bytes(), wantProfile) {
							t.Errorf("%s: the %s run's encoded profile differs from the stackless run's (%d vs %d bytes)", at, d.name, enc.Len(), len(wantProfile))
						}
					}
				}
			}
		}
	}
}

// streamWorkloads lists every registered workload whose program is an
// app.Stream, so each traffic rule is covered as soon as it is registered.
func streamWorkloads(t *testing.T) []string {
	var names []string
	for _, name := range append(Apps(), ExtendedApps()...) {
		if _, ok := lookup(t, name, 1).(app.Stream); ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no registered workload is a stream")
	}
	return names
}

// lookup builds the named workload at tiny scale.
func lookup(t *testing.T, name string, seed int64) app.Program {
	t.Helper()
	prog, err := apps.Lookup(name, Tiny, seed)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
