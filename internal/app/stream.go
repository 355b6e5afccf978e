package app

import (
	"fmt"

	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Stream is a Program whose processors never look at simulated time — a
// synthetic injector, a trace replay: trace-driven, in the paper's terms.
// It hands over each processor's references as a cursor it can advance
// and leaves the driving to the runner (see runOn), which on a machine
// priced at issue spends no coroutine on it.  Start and Next are pure
// functions of the set-up program, so the run draws a stream and
// CheckStreams draws it again.  Body is Drive.
type Stream interface {
	Program
	// Start returns the cursor at processor id's first reference.
	Start(id int) Cursor
	// Next returns processor id's reference at cur and the cursor past
	// it; ok is false once the stream is done.
	Next(id int, cur Cursor) (r Ref, next Cursor, ok bool)
}

// Cursor is a position in one processor's stream, held by value in the
// driver's feed: how many references it has drawn, and a word of the
// Stream's own state (a generator, a timestamp).
type Cursor struct {
	Pos   int
	State uint64
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
// share — the machine, the stream, where the tallies go — is behind ctx.
type feed struct {
	cur   Cursor
	tally Tally
	st    *stats.Proc
	sp    *sim.Proc
	ctx   *Ctx
	id    int
}

// feed returns processor id's feed, bound to this run and set at the
// start of s; its tally counts on from the zero of a fresh or checked-out
// slab.
func (c *Ctx) feed(id int, s Stream) *feed {
	f := &c.feeds[id]
	f.cur, f.st, f.ctx, f.id = s.Start(id), &c.Run.Procs[id], c, id
	return f
}

// run is the one compute/issue/checksum loop.  On a machine priced at
// issue (ctx.at) it makes the clock calls Read or Write would, and returns
// at the first reference the process waits for, to be resumed when it
// completes.  Otherwise the references block inside the machine: it
// returns once, done.
func (f *feed) run(s Stream) (wake sim.Time, done bool) {
	c, sp, st := f.ctx, f.sp, f.st
	at := sp.Now() // no local time owed yet: the clock of this dispatch
	for {
		var r Ref
		var ok bool
		r, f.cur, ok = s.Next(f.id, f.cur)
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
			var wait bool
			// The machine is what processes share: a parallel window
			// prices references in sequential dispatch order.
			sp.Ordered(func() { end, wait = c.at.Issue(st, at, now, f.id, r.Addr, r.Write) })
			if wait && end > now {
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
	wake, done := f.run(f.ctx.stream)
	if done {
		f.st.Finish = sp.Now()
	}
	return wake, done
}

// Drive is the Body of a Stream: p's references through Read and Write,
// from p's feed in the context's slab.
func Drive(s Stream, p *Proc) {
	f := p.Ctx.feed(p.ID, s)
	f.sp = p.S
	f.run(s)
}

// CheckStreams is the Check of a Stream: every processor issued exactly
// its stream, drawn again here, or the run's traffic left its schedule.
func (c *Ctx) CheckStreams(s Stream) error {
	for id, got := range c.Issued {
		var want Tally
		for cur := s.Start(id); ; {
			var r Ref
			var ok bool
			if r, cur, ok = s.Next(id, cur); !ok {
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
