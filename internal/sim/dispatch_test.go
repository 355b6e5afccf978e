package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// dispatchTrace hashes what the processes of a run observe each time one
// of them resumes: the clock, the process and the running event count.
// Every resumption is one dispatched event, and Events numbers them, so
// two runs hash alike only if they dispatch the same processes in the
// same order at the same times.
type dispatchTrace struct {
	e *Engine
	h hash.Hash
}

func newDispatchTrace(e *Engine) *dispatchTrace { return &dispatchTrace{e: e, h: sha256.New()} }

func (d *dispatchTrace) see(p *Proc) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(d.e.Now()))
	binary.LittleEndian.PutUint64(b[8:], uint64(p.ID))
	binary.LittleEndian.PutUint64(b[16:], d.e.Events)
	d.h.Write(b[:])
}

// dispatchScenarios are the shapes whose dispatch order TestDispatchTracePinned
// pins: every way control passes from one process to another.
var dispatchScenarios = []struct {
	name  string
	build func(e *Engine, see func(*Proc))
}{
	{"ping-pong", func(e *Engine, see func(*Proc)) {
		for i := 0; i < 2; i++ {
			e.SpawnIndexed("pp", func(p *Proc) {
				p.Hold(Time(p.ID))
				for j := 0; j < 200; j++ {
					see(p)
					p.Hold(2)
				}
			})
		}
	}},
	{"coprime-64", func(e *Engine, see func(*Proc)) {
		primes := make([]Time, 0, 64)
		for n := Time(2); len(primes) < 64; n++ {
			prime := true
			for _, q := range primes {
				if n%q == 0 {
					prime = false
					break
				}
			}
			if prime {
				primes = append(primes, n)
			}
		}
		for i := 0; i < 64; i++ {
			hold := primes[i]
			e.SpawnIndexed("cp", func(p *Proc) {
				for j := 0; j < 40; j++ {
					see(p)
					p.Hold(hold)
				}
			})
		}
	}},
	{"lock-convoy-8", func(e *Engine, see func(*Proc)) {
		var l Lock
		for i := 0; i < 8; i++ {
			e.SpawnIndexed("lk", func(p *Proc) {
				for r := 0; r < 40; r++ {
					p.Defer(Time(p.ID % 3))
					l.Acquire(p)
					see(p)
					p.Hold(5)
					l.Release(p)
					see(p)
					p.Hold(Time(1 + p.ID%2))
				}
			})
		}
	}},
	{"barrier-storm-16", func(e *Engine, see func(*Proc)) {
		b := NewBarrier(16)
		for i := 0; i < 16; i++ {
			e.SpawnIndexed("br", func(p *Proc) {
				for r := 0; r < 30; r++ {
					p.Hold(Time(1 + (p.ID*7+r)%5))
					b.Arrive(p)
					see(p)
				}
			})
		}
	}},
	{"spawn-and-step", func(e *Engine, see func(*Proc)) {
		for i := 0; i < 16; i++ {
			gap := Time(2 + i%5)
			if i%2 == 0 {
				e.SpawnIndexed("co", func(p *Proc) {
					for j := 0; j < 30; j++ {
						see(p)
						p.Defer(1)
						p.Hold(gap)
					}
				})
				continue
			}
			left := 30
			e.SpawnStep("st", stepFunc(func(p *Proc) (Time, bool) {
				see(p)
				if left == 0 {
					return 0, true
				}
				left--
				p.Defer(1)
				return p.Now() + gap, false
			}))
		}
	}},
	{"mid-run-spawn", func(e *Engine, see func(*Proc)) {
		for i := 0; i < 4; i++ {
			e.SpawnIndexed("root", func(p *Proc) {
				see(p)
				p.Hold(Time(5 * (p.ID + 1)))
				for k := 0; k < 3; k++ {
					see(p)
					e.SpawnIndexed("child", func(c *Proc) {
						for j := 0; j < 5; j++ {
							see(c)
							c.Hold(Time(3 + c.ID%4))
						}
					})
					p.Hold(7)
				}
				see(p)
			})
		}
	}},
	{"wake-now", func(e *Engine, see func(*Proc)) {
		var q Queue
		const waiters = 8
		for i := 0; i < waiters; i++ {
			e.SpawnIndexed("w", func(p *Proc) {
				for r := 0; r < 20; r++ {
					q.Wait(p)
					see(p)
					if r%3 == 0 {
						yield(p)
						see(p)
					}
				}
			})
		}
		e.SpawnIndexed("waker", func(p *Proc) {
			for e.nLive > 1 {
				p.Hold(3)
				see(p)
				for k := 0; k < waiters/2; k++ {
					wakeOne(&q) // resumes a waiter at the current time
				}
				yield(p)
				see(p)
				q.WakeAll()
			}
		})
	}},
}

// TestPingPongOneSwitchPerEvent: two coroutines taking turns resume each
// other directly — one coroutine switch an event, where resuming every
// owner from Run's loop cost two (there, and back to the loop).
func TestPingPongOneSwitchPerEvent(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.SpawnIndexed("pp", func(p *Proc) {
			p.Hold(Time(p.ID))
			for j := 0; j < 1000; j++ {
				p.Hold(2)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Run's loop resumes the first process, and gets control back from
	// it, once; every other switch is one process resuming or returning
	// to the other.
	if e.switches > e.Events+2 {
		t.Errorf("%d coroutine switches for %d events, want at most one an event", e.switches, e.Events)
	}
}

// TestDispatchTracePinned: the dispatch order of every scenario is the
// one the two-switch kernel produced, hashed at the commit before the
// chained handoff (who resumes a process may change; which process runs
// next, and when, may not).
func TestDispatchTracePinned(t *testing.T) {
	want := map[string]string{
		"ping-pong":        "e514e04b5f8f7e8a84e6e48282377051e71758ab25bc3bd3ecfc9a3bd6d65678",
		"coprime-64":       "f1e480cec66b319b5b44b87a5a47d7eeb4ce8252fc7291f8feca0e97800d821c",
		"lock-convoy-8":    "8b3b21ca63b78e2e5c3ef2bb1f6a3f7593be85ba7fc1b5059e70c75117f2f186",
		"barrier-storm-16": "26333a20e1abdf820375c89068aaf9c06c530a1cd3878bc909f49abf0724a5b4",
		"spawn-and-step":   "c2ddf8e7ce5aaa43ab0dd280340c87ea53700842e0dc50ad186095cbb0d9f83d",
		"mid-run-spawn":    "dc3dfe8a9a3d435dc9fd937a93da7b9af74b1e904f52ac4d402da9aacae00daa",
		"wake-now":         "f37895adf22f2476d5ca6a04d679784f494429c18955c1bd131e4bda435bdb7f",
	}
	for _, sc := range dispatchScenarios {
		e := NewEngine()
		d := newDispatchTrace(e)
		sc.build(e, d.see)
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if got := hex.EncodeToString(d.h.Sum(nil)); got != want[sc.name] {
			t.Errorf("%s: dispatch trace %s (%d events), want %s", sc.name, got, e.Events, want[sc.name])
		}
	}
}
