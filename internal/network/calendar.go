package network

import "spasm/internal/sim"

// Calendar books resources by busy-until time: a resource is free from
// one time on, and a booking holds it until a later one.  It is the one
// booking structure of both networks the paper compares: LogP's ports
// and the fabric's links and endpoint ports are each one calendar's
// resources, numbered [0, n).  A booking is start = max(request, Free of
// each resource it needs), then Hold of each until start + its hold.
//
// A resource is recorded on the touched list when a Hold first moves it
// off time zero, so Reset clears what the last run used, not all n
// entries: on the fully connected fabric n is O(p²).  The list is
// allocated whole, so a Hold never calls into the allocator and keeps
// the booking caller's registers; it cannot overflow, because a Hold
// never books a resource short of its free time.
type Calendar struct {
	free    []sim.Time
	touched []int32 // the first nt entries are the resources held
	nt      int
}

// NewCalendar returns a calendar of n resources, each free from time zero.
func NewCalendar(n int) Calendar {
	return Calendar{free: make([]sim.Time, n), touched: make([]int32, n)}
}

// Free returns the time from which resource id is free.
func (c *Calendar) Free(id int) sim.Time { return c.free[id] }

// Hold books resource id until the given time, no earlier than
// Free(id), from which it is free again.
func (c *Calendar) Hold(id int, until sim.Time) {
	f := &c.free[id]
	if *f == 0 && until != 0 {
		c.touched[c.nt] = int32(id)
		c.nt++
	}
	*f = until
}

// Reset frees every resource from time zero in O(touched).
func (c *Calendar) Reset() {
	for _, id := range c.touched[:c.nt] {
		c.free[id] = 0
	}
	c.nt = 0
}
