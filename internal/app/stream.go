package app

import (
	"fmt"

	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
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

// feed is one processor's stream in flight: 64 bytes, one host cache line
// of a run's []feed (TestFeedFitsOneLine), so an event of a stackless
// process finds its driver state in one place.  What all feeds of a run
// share — the machine, where the tallies go — is behind ctx.
type feed struct {
	refs  RefStream
	tally Tally
	st    *stats.Proc
	sp    *sim.Proc
	ctx   *Ctx
	id    int
}

// run is the one compute/issue/checksum loop.  On a machine priced at
// issue (ctx.at) it makes the clock calls Read or Write would, and returns
// at the first reference to leave the node, to be resumed when its reply
// lands.  Otherwise the references block inside the machine: it returns
// once, done.
func (f *feed) run() (wake sim.Time, done bool) {
	c, sp, st := f.ctx, f.sp, f.st
	for {
		r, ok := f.refs.Next()
		if !ok {
			c.Issued[f.id] = f.tally
			return 0, true
		}
		computeTime(st, sp, r.Think)
		f.tally.add(r)
		switch {
		case c.at != nil:
			now := sp.Now()
			var end sim.Time
			var remote bool
			// The machine is what processes share: a parallel window
			// prices references in sequential dispatch order.
			sp.Ordered(func() { end, remote = c.at.Issue(st, now, f.id, r.Addr, r.Write) })
			if remote && end > now {
				return end, false
			}
			sp.Defer(end - now)
		case r.Write:
			c.M.Write(sp, st, f.id, r.Addr)
		default:
			c.M.Read(sp, st, f.id, r.Addr)
		}
	}
}

// Step implements sim.Stepper: a feed is the body of a stackless process.
func (f *feed) Step(sp *sim.Proc) (sim.Time, bool) {
	wake, done := f.run()
	if done {
		f.st.Finish = sp.Now()
	}
	return wake, done
}

// Drive is the Body of a Stream: p's references through Read and Write.
func Drive(s Stream, p *Proc) {
	f := feed{refs: s.StreamOf(p.ID), st: p.St, sp: p.S, ctx: p.Ctx, id: p.ID}
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
