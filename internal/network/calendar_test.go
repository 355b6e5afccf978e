package network

import (
	"math/rand"
	"testing"

	"spasm/internal/sim"
)

// calOp is one step of a calendar sequence: a Reset, or a Hold of
// resource id for hold past its free time (until, once replayed).
type calOp struct {
	reset       bool
	id          int
	hold, until sim.Time
}

// decodeCalendar turns bytes into a calendar size and an op sequence:
// the first byte sizes the calendar (1 to 16 resources), then each pair
// of bytes is one op.  One op in eight is a Reset; a Hold lasts 0 to 15,
// so holds that leave a resource at time zero occur.
func decodeCalendar(data []byte) (int, []calOp) {
	if len(data) == 0 {
		return 1, nil
	}
	n := 1 + int(data[0])%16
	var ops []calOp
	for i := 1; i+1 < len(data); i += 2 {
		if data[i]%8 == 7 {
			ops = append(ops, calOp{reset: true})
			continue
		}
		ops = append(ops, calOp{id: int(data[i]/8) % n, hold: sim.Time(data[i+1] % 16)})
	}
	return n, ops
}

// refFree recomputes a resource's free time from the whole booking
// history up to step k: its last Hold since the last Reset, or zero.
// k may be -1, before the first op.
func refFree(ops []calOp, k, id int) sim.Time {
	for i := k; i >= 0; i-- {
		switch {
		case ops[i].reset:
			return 0
		case ops[i].id == id:
			return ops[i].until
		}
	}
	return 0
}

// replayCalendar applies ops to one calendar, each Hold until the
// reference's free time plus its hold, and checks every resource's Free
// against the reference after every op, and that a Reset leaves a
// calendar that reads like a fresh one with nothing left to clear.
func replayCalendar(t *testing.T, n int, ops []calOp) {
	t.Helper()
	c := NewCalendar(n)
	for k, op := range ops {
		if op.reset {
			c.Reset()
			if c.nt != 0 {
				t.Fatalf("op %d: Reset left %d touched entries", k, c.nt)
			}
		} else {
			ops[k].until = refFree(ops, k-1, op.id) + op.hold
			c.Hold(op.id, ops[k].until)
		}
		for id := 0; id < n; id++ {
			if got, want := c.Free(id), refFree(ops, k, id); got != want {
				t.Fatalf("op %d (%+v): Free(%d) = %v, reference %v", k, op, id, got, want)
			}
		}
	}
	c.Reset()
	fresh := NewCalendar(n)
	for id := 0; id < n; id++ {
		if c.Free(id) != fresh.Free(id) {
			t.Fatalf("after the final Reset Free(%d) = %v, fresh %v", id, c.Free(id), fresh.Free(id))
		}
	}
}

// TestCalendarMatchesReference replays seeded random sequences against
// the brute-force reference.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		n, ops := decodeCalendar(data)
		replayCalendar(t, n, ops)
	}
}

// FuzzCalendar replays arbitrary byte-decoded sequences against the same
// reference.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{3, 0, 40, 8, 16, 7, 0, 0, 8})
	f.Add([]byte{15, 120, 0, 120, 80, 120, 0, 127, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := decodeCalendar(data)
		replayCalendar(t, n, ops)
	})
}
