package app

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/runpool"
	"spasm/internal/sim"
)

// strider is a Stream for framework tests: every processor walks the
// shared array from its own offset, refs references in all (a negative
// count never ends), panicking at the reference numbered boom.
type strider struct {
	refs, boom int
	arr        *mem.Array
	ctx        *Ctx
	// goroutines is the largest goroutine count any Next observed: a
	// coroutine per processor shows here, a stackless run does not.
	// (Atomic: the parallel mode overlaps the bodies of its processes.)
	goroutines atomic.Int64
}

func (s *strider) Name() string { return "strider" }
func (s *strider) Setup(c *Ctx) {
	s.arr, s.ctx = c.Space.Alloc("strider.data", c.P*64, 8, mem.Blocked), c
}
func (s *strider) Body(p *Proc)        { Drive(s, p) }
func (s *strider) Check() error        { return s.ctx.CheckStreams(s) }
func (s *strider) Start(id int) Cursor { return Cursor{State: uint64(id * 37)} }

// Next counts references drawn in Pos and holds the array index in State.
func (s *strider) Next(_ int, cur Cursor) (Ref, Cursor, bool) {
	for n := int64(runtime.NumGoroutine()); ; {
		if seen := s.goroutines.Load(); n <= seen || s.goroutines.CompareAndSwap(seen, n) {
			break
		}
	}
	if cur.Pos == s.refs {
		return Ref{}, cur, false
	}
	n := cur.Pos + 1
	if n == s.boom {
		panic("bad reference")
	}
	at := (int(cur.State) + 29) % s.arr.N
	return Ref{Think: sim.Cycles(int64(n % 5)), Addr: s.arr.At(at), Write: n%4 == 0}, Cursor{Pos: n, State: uint64(at)}, true
}

// hidden wraps a machine in a decorator that adds nothing — and, like the
// trace recorder and the fault injector, hides Issue.
func hidden(m machine.Machine) machine.Machine { return struct{ machine.Machine }{m} }

// TestStreamDriverChosenFromTheRun: which of the two drivers runs a
// Stream follows from the machine the program will drive and from
// nothing else — and nothing a result carries depends on the choice.
// Workers overlap the step functions of a stackless run, on no more
// goroutines than that; elsewhere the run says it is not stackless.
func TestStreamDriverChosenFromTheRun(t *testing.T) {
	const P = 8
	logp := machine.Config{Kind: machine.LogP, Topology: "cube", P: P}
	var want *Result
	for _, c := range []struct {
		name      string
		cfg       machine.Config
		opt       Options
		stackless bool
		parallel  bool
	}{
		{"logp", logp, Options{}, true, false},
		{"logp, one worker", logp, Options{Workers: 1}, true, false},
		{"logp behind a decorator", logp, Options{Wrap: hidden}, false, false},
		{"logp, two workers", logp, Options{Workers: 2}, true, true},
		{"logp behind a decorator, two workers", logp, Options{Wrap: hidden, Workers: 2}, false, false},
		{"target", machine.Config{Kind: machine.Target, Topology: "cube", P: P}, Options{}, false, false},
		{"flow, two workers", machine.Config{Kind: machine.Flow, Topology: "cube", P: P}, Options{Workers: 2}, true, true},
		{"ideal, two workers", machine.Config{Kind: machine.Ideal, P: P}, Options{Workers: 2}, true, true},
		{"clogp, two workers", machine.Config{Kind: machine.CLogP, Topology: "cube", P: P}, Options{Workers: 2}, false, false},
	} {
		base := runtime.NumGoroutine()
		prog := &strider{refs: 200}
		res, err := Execute(prog, c.cfg, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := int(prog.goroutines.Load()) - base; (got < P) != c.stackless {
			t.Errorf("%s: %d goroutines beyond the caller's mid-run, want stackless = %v", c.name, got, c.stackless)
		}
		if c.opt.Workers > 1 {
			if want := sim.NotStackless; res.Par == nil || res.Par.Parallel != c.parallel || (!c.parallel && res.Par.Fallback != want) {
				t.Errorf("%s: parallel report %+v, want parallel = %v or fallback %q", c.name, res.Par, c.parallel, want)
			}
		}
		if c.cfg != logp {
			continue
		}
		if want == nil {
			want = res
		}
		if !reflect.DeepEqual(res.Stats.Procs, want.Stats.Procs) || res.Stats.Total != want.Stats.Total ||
			res.Stats.SimEvents != want.Stats.SimEvents || res.Stats.NetEvents != want.Stats.NetEvents {
			t.Errorf("%s: statistics differ from the stackless run's", c.name)
		}
	}
}

// TestStreamFailuresAreRunErrors: a stream that panics fails the run with
// the kernel's process error under either driver, and a stackless run
// stopped by its RunControl reports that and leaves no goroutine behind.
func TestStreamFailuresAreRunErrors(t *testing.T) {
	cfg := machine.Config{Kind: machine.LogP, Topology: "cube", P: 8}
	var first string
	for _, opt := range []Options{{}, {Wrap: hidden}} {
		base := runtime.NumGoroutine()
		_, err := Execute(&strider{refs: 200, boom: 50}, cfg, opt)
		if err == nil || !strings.Contains(err.Error(), `sim: process "strider/p`) || !strings.HasSuffix(err.Error(), ": bad reference") {
			t.Fatalf("decorated %v: run returned %v", opt.Wrap != nil, err)
		}
		if first == "" {
			first = err.Error()
		}
		if err.Error() != first { // same process, same simulated time
			t.Errorf("the blocking driver failed with %q, the stackless one with %q", err, first)
		}
		settleGoroutines(t, base)
	}

	base := runtime.NumGoroutine()
	_, err := Execute(&strider{refs: -1}, cfg, Options{Control: RunControl{Timeout: 2 * time.Millisecond}})
	if !errors.Is(err, ErrRunTimeout) {
		t.Errorf("endless stream under a timeout: %v", err)
	}
	settleGoroutines(t, base)
	if _, err := Execute(&strider{refs: -1}, cfg, Options{Control: RunControl{Timeout: time.Nanosecond}}); !errors.Is(err, ErrRunTimeout) {
		t.Errorf("endless stream under a deadline already past: %v", err)
	}
	settleGoroutines(t, base)
}

// TestStreamPooledReuse: a context a stackless run finished with is
// reused, and the rerun is the same run; one a stackless run was aborted
// on is discarded, and the pool serves the next run from a fresh one.
func TestStreamPooledReuse(t *testing.T) {
	pool := runpool.New(4)
	cfg := machine.Config{Kind: machine.LogP, Topology: "cube", P: 8}
	run := func() *Result {
		t.Helper()
		res, err := Execute(&strider{refs: 200}, cfg, Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	total, procs := first.Stats.Total, first.Stats.Procs
	if again := run(); again.Stats.Total != total || !reflect.DeepEqual(again.Stats.Procs, procs) {
		t.Error("pooled rerun of a stackless run differs from the first run")
	}
	if st := pool.Stats(); st.Hits != 1 || st.Live != 1 {
		t.Fatalf("after two clean runs: %+v, want Hits=1 Live=1", st)
	}
	_, err := Execute(&strider{refs: -1}, cfg, Options{Pool: pool, Control: RunControl{Timeout: 2 * time.Millisecond}})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	if st := pool.Stats(); st.Discarded != 1 || st.Live != 0 {
		t.Fatalf("after the abort: %+v, want Discarded=1 Live=0", st)
	}
	if again := run(); again.Stats.Total != total || !reflect.DeepEqual(again.Stats.Procs, procs) {
		t.Error("run after a discarded abort differs from the first run")
	}
}

// TestFeedFitsOneLine: a stackless processor's driver state is one host
// cache line of the run's []feed.  (With the Proc handle embedded — phase
// state a stream never marks, the machine a second time — it was 160
// bytes, an object each.)
func TestFeedFitsOneLine(t *testing.T) {
	if size := unsafe.Sizeof(feed{}); size > 64 {
		t.Errorf("feed is %d bytes, more than a 64-byte cache line", size)
	}
}
