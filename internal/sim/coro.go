//go:build go1.23

package sim

import "iter"

// launch makes p's body a runtime coroutine: p.next switches into it and
// p.yield back, stack to stack — no channel, no wake, no trip through the
// Go scheduler.  The module's only use of a Go 1.23 library (go.mod stays
// at 1.22 for the frozen bench module's sake), hence the constraint.
func (p *Proc) launch(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
}
