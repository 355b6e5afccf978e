// Package trace records and replays shared-memory reference traces.
//
// Execution-driven simulation (what SPASM and this reproduction do) runs
// the application's control flow under simulated time; trace-driven
// simulation replays a previously captured reference stream.  The two
// agree for applications whose reference pattern is timing-independent
// (EP, FFT, IS) and diverge for dynamic ones (CHOLESKY's task schedule,
// lock acquisition orders), because a trace bakes in the schedule of the
// machine it was recorded on — the methodological distinction the
// authors examined in their companion work.  This package provides the
// apparatus to demonstrate that on any pair of machine models:
//
//	tr, res, err := trace.Record(prog, cfg) // run prog, recording its references
//	replay := trace.Replay(tr)              // a Program that replays them
//	...run replay on another machine...
//
// A trace carries the original run's address-space layout (every region
// with its placement policy), so the replay sees byte-identical homing.
// Traces serialize to a compact binary stream via Encode and Decode.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Event is one shared-memory reference with its (local-clock) issue and
// completion times.  The gap between one event's completion and the next
// event's issue is pure local computation, which a replay re-inserts;
// the access service time itself is re-priced by the replay machine.
type Event struct {
	Proc  int32
	Write bool
	Addr  mem.Addr
	At    sim.Time // issue time
	Done  sim.Time // completion time
}

// Region describes one allocation of the recorded address space, enough
// to reproduce it exactly.
type Region struct {
	Name     string
	N        int
	ElemSize int
	Policy   mem.Policy
	Node     int // home for Fixed placement
	Base     mem.Addr
}

// Trace is a recorded run: the reference stream plus the address-space
// layout needed to rebuild an identical Space for replay.
type Trace struct {
	P       int
	Regions []Region
	Events  []Event
}

// PerProc splits the events by issuing processor, preserving order.
func (t *Trace) PerProc() [][]Event {
	out := make([][]Event, t.P)
	for _, e := range t.Events {
		out[e.Proc] = append(out[e.Proc], e)
	}
	return out
}

// Record runs prog on the machine cfg describes with a recorder wrapped
// around it, and returns the reference trace alongside the run result.
func Record(prog app.Program, cfg machine.Config) (*Trace, *app.Result, error) {
	var rec *recorder
	res, err := app.Execute(prog, cfg, app.Options{Wrap: func(m machine.Machine) machine.Machine {
		rec = &recorder{inner: m}
		return rec
	}})
	if err != nil {
		return nil, nil, err
	}
	t := &Trace{P: rec.inner.P(), Events: rec.events}
	for _, a := range res.Space.Regions() {
		t.Regions = append(t.Regions, Region{
			Name:     a.Name,
			N:        a.N,
			ElemSize: a.ElemSize,
			Policy:   a.Policy,
			Node:     a.Node,
			Base:     a.Base,
		})
	}
	return t, res, nil
}

// recorder wraps a Machine and appends every reference to events.
type recorder struct {
	inner  machine.Machine
	events []Event
}

// Kind implements machine.Machine.
func (r *recorder) Kind() machine.Kind { return r.inner.Kind() }

// P implements machine.Machine.
func (r *recorder) P() int { return r.inner.P() }

// Read implements machine.Machine, logging the reference.
func (r *recorder) Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	e := Event{Proc: int32(node), Addr: addr, At: p.Now()}
	r.inner.Read(p, st, node, addr)
	e.Done = p.Now()
	r.events = append(r.events, e)
}

// Write implements machine.Machine, logging the reference.
func (r *recorder) Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	e := Event{Proc: int32(node), Write: true, Addr: addr, At: p.Now()}
	r.inner.Write(p, st, node, addr)
	e.Done = p.Now()
	r.events = append(r.events, e)
}

// Binary format constants.
const (
	magic   = 0x53504153 // "SPAS"
	version = 2
	// recordBytes is the fixed on-disk size of one event.
	recordBytes = 4 + 1 + 8 + 8 + 8
)

// Encode serializes the trace.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	head := make([]byte, 4+2+4+4+8)
	binary.LittleEndian.PutUint32(head[0:], magic)
	binary.LittleEndian.PutUint16(head[4:], version)
	binary.LittleEndian.PutUint32(head[6:], uint32(t.P))
	binary.LittleEndian.PutUint32(head[10:], uint32(len(t.Regions)))
	binary.LittleEndian.PutUint64(head[14:], uint64(len(t.Events)))
	if _, err := bw.Write(head); err != nil {
		return err
	}
	for _, r := range t.Regions {
		if err := writeRegion(bw, r); err != nil {
			return err
		}
	}
	rec := make([]byte, recordBytes)
	for _, e := range t.Events {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.Proc))
		rec[4] = 0
		if e.Write {
			rec[4] = 1
		}
		binary.LittleEndian.PutUint64(rec[5:], uint64(e.Addr))
		binary.LittleEndian.PutUint64(rec[13:], uint64(e.At))
		binary.LittleEndian.PutUint64(rec[21:], uint64(e.Done))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeRegion(w io.Writer, r Region) error {
	name := []byte(r.Name)
	head := make([]byte, 2+4+4+4+4+8)
	binary.LittleEndian.PutUint16(head[0:], uint16(len(name)))
	binary.LittleEndian.PutUint32(head[2:], uint32(r.N))
	binary.LittleEndian.PutUint32(head[6:], uint32(r.ElemSize))
	binary.LittleEndian.PutUint32(head[10:], uint32(r.Policy))
	binary.LittleEndian.PutUint32(head[14:], uint32(r.Node))
	binary.LittleEndian.PutUint64(head[18:], uint64(r.Base))
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(name)
	return err
}

func readRegion(r io.Reader) (Region, error) {
	head := make([]byte, 2+4+4+4+4+8)
	if _, err := io.ReadFull(r, head); err != nil {
		return Region{}, err
	}
	reg := Region{
		N:        int(binary.LittleEndian.Uint32(head[2:])),
		ElemSize: int(binary.LittleEndian.Uint32(head[6:])),
		Policy:   mem.Policy(binary.LittleEndian.Uint32(head[10:])),
		Node:     int(binary.LittleEndian.Uint32(head[14:])),
		Base:     mem.Addr(binary.LittleEndian.Uint64(head[18:])),
	}
	name := make([]byte, binary.LittleEndian.Uint16(head[0:]))
	if _, err := io.ReadFull(r, name); err != nil {
		return Region{}, err
	}
	reg.Name = string(name)
	return reg, nil
}

// Decode deserializes a trace written by Encode.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4+2+4+4+8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != magic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	t := &Trace{P: int(binary.LittleEndian.Uint32(head[6:]))}
	nRegions := binary.LittleEndian.Uint32(head[10:])
	nEvents := binary.LittleEndian.Uint64(head[14:])
	for i := uint32(0); i < nRegions; i++ {
		reg, err := readRegion(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading region %d: %w", i, err)
		}
		t.Regions = append(t.Regions, reg)
	}
	// Cap the pre-allocation hint: the header's event count is
	// untrusted input, and a short stream will fail below anyway.
	capHint := nEvents
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	t.Events = make([]Event, 0, capHint)
	rec := make([]byte, recordBytes)
	for i := uint64(0); i < nEvents; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("trace: reading event %d: %w", i, err)
		}
		t.Events = append(t.Events, Event{
			Proc:  int32(binary.LittleEndian.Uint32(rec[0:])),
			Write: rec[4] == 1,
			Addr:  mem.Addr(binary.LittleEndian.Uint64(rec[5:])),
			At:    sim.Time(binary.LittleEndian.Uint64(rec[13:])),
			Done:  sim.Time(binary.LittleEndian.Uint64(rec[21:])),
		})
	}
	return t, nil
}

// replayProgram re-issues a recorded trace: each processor replays its
// own subsequence, inserting the recorded inter-reference gaps as
// compute time.  This is trace-driven simulation: the schedule of the
// recording run is baked in, which is precisely its limitation for
// dynamically scheduled applications.
type replayProgram struct {
	t      *Trace
	perPrc [][]Event
	ctx    *app.Ctx
	setupE error
}

// Replay returns a Program that replays the trace.
func Replay(t *Trace) app.Program {
	return &replayProgram{t: t, perPrc: t.PerProc()}
}

// Name implements app.Program.
func (r *replayProgram) Name() string { return "trace-replay" }

// Setup recreates the recorded address space exactly: same regions, same
// placement policies, same bases — so every replayed reference has the
// same home node it had when recorded.
func (r *replayProgram) Setup(c *app.Ctx) {
	r.ctx = c
	if c.P != r.t.P {
		r.setupE = fmt.Errorf("trace: replaying a %d-processor trace on %d processors", r.t.P, c.P)
		return
	}
	for _, reg := range r.t.Regions {
		var a *mem.Array
		if reg.Policy == mem.Fixed {
			a = c.Space.AllocAt(reg.Name, reg.N, reg.ElemSize, reg.Node)
		} else {
			a = c.Space.Alloc(reg.Name, reg.N, reg.ElemSize, reg.Policy)
		}
		if a.Base != reg.Base {
			r.setupE = fmt.Errorf("trace: region %q rebuilt at %#x, recorded at %#x",
				reg.Name, uint64(a.Base), uint64(reg.Base))
			return
		}
	}
}

// Start implements app.Stream: a replay's cursor indexes the
// processor's recorded subsequence and holds the completion time of the
// event before.
func (r *replayProgram) Start(int) app.Cursor { return app.Cursor{} }

// Next implements app.Stream; a replay whose Setup failed issues nothing.
func (r *replayProgram) Next(id int, cur app.Cursor) (app.Ref, app.Cursor, bool) {
	if r.setupE != nil || id >= len(r.perPrc) || cur.Pos >= len(r.perPrc[id]) {
		return app.Ref{}, cur, false
	}
	e := r.perPrc[id][cur.Pos]
	// Re-insert only the pure-compute gap; the access itself is
	// re-priced by the machine the trace is replayed on.
	gap := e.At - sim.Time(cur.State)
	return app.Ref{Think: gap, Addr: e.Addr, Write: e.Write}, app.Cursor{Pos: cur.Pos + 1, State: uint64(e.Done)}, true
}

// Body implements app.Program.
func (r *replayProgram) Body(p *app.Proc) { app.Drive(r, p) }

// Check verifies every recorded event was re-issued.
func (r *replayProgram) Check() error {
	if r.setupE != nil {
		return r.setupE
	}
	return r.ctx.CheckStreams(r)
}
