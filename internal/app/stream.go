package app

import (
	"fmt"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
)

// Stream is a Program whose processors never look at simulated time — a
// synthetic injector, a trace replay: trace-driven, in the paper's terms.
// It hands over each processor's references as a generator and leaves the
// driving to the runner (see runOn), which on a machine priced at issue
// spends no coroutine on it.  StreamOf returns the same stream whenever
// it is asked: the run draws it once, CheckStreams again.  Body is Drive.
type Stream interface {
	Program
	StreamOf(id int) RefStream
}

// RefStream yields one processor's references in issue order.
type RefStream interface {
	Next() (r Ref, ok bool)
}

// Ref is one reference: Think of local computation, then the access.
type Ref struct {
	Think sim.Time
	Addr  mem.Addr
	Write bool
}

// Tally is what a run issued of a stream: count, address-and-kind checksum.
type Tally struct {
	Refs int
	Sum  uint64
}

func (t *Tally) add(r Ref) {
	t.Refs++
	t.Sum += uint64(r.Addr) * 2
	if r.Write {
		t.Sum++
	}
}

// feed is one processor's stream in flight, Proc included: a stackless
// process's events find both in adjacent cache lines.
type feed struct {
	Proc
	refs  RefStream
	at    machine.PricedAtIssue // nil: issue through p's blocking Read and Write
	tally Tally
}

// run is the one compute/issue/checksum loop.  On a machine priced at
// issue it makes the clock calls Read or Write would, and returns at the
// first reference to leave the node, to be resumed when its reply lands.
// Otherwise the references block inside the machine: it returns once, done.
func (f *feed) run() (wake sim.Time, done bool) {
	p := &f.Proc
	for {
		r, ok := f.refs.Next()
		if !ok {
			p.Ctx.Issued[p.ID] = f.tally
			return 0, true
		}
		p.ComputeTime(r.Think)
		f.tally.add(r)
		switch {
		case f.at != nil:
			now := p.Now()
			end, remote := f.at.Issue(p.St, now, p.ID, r.Addr, r.Write)
			if remote && end > now {
				return end, false
			}
			p.S.Defer(end - now)
		case r.Write:
			p.Write(r.Addr)
		default:
			p.Read(r.Addr)
		}
	}
}

// Step implements sim.Stepper: a feed is the body of a stackless process.
func (f *feed) Step(sp *sim.Proc) (sim.Time, bool) {
	wake, done := f.run()
	if done {
		f.Ctx.Run.Finish(f.ID, sp.Now())
	}
	return wake, done
}

// Drive is the Body of a Stream: p's references through Read and Write.
func Drive(s Stream, p *Proc) {
	f := feed{Proc: *p, refs: s.StreamOf(p.ID)} // a copy of the handle: a stream marks no phase
	f.run()
}

// CheckStreams is the Check of a Stream: every processor issued exactly
// its stream, drawn again here, or the run's traffic left its schedule.
func (c *Ctx) CheckStreams(s Stream) error {
	for id, got := range c.Issued {
		var want Tally
		for refs := s.StreamOf(id); ; {
			r, ok := refs.Next()
			if !ok {
				break
			}
			want.add(r)
		}
		if got != want {
			return fmt.Errorf("%s: processor %d issued %+v, its stream is %+v", s.Name(), id, got, want)
		}
	}
	return nil
}
