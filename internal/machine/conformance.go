package machine

import (
	"fmt"
	"time"

	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Conformance checks that a Machine implementation obeys the semantic
// contract every machine characterization must satisfy, independent of
// its timing model:
//
//  1. accounting: every Read/Write increments the issuing processor's
//     reference counters;
//  2. progress: accesses complete in finite simulated time and never
//     move a processor's clock backwards;
//  3. determinism: identical access sequences produce identical
//     simulated times and statistics;
//  4. locality sanity: a reference to the issuing node's own partition
//     never costs more than the same reference made remotely (for
//     machines that distinguish the two).
//
// Tests call it with a factory so each check starts from a fresh
// machine; it returns the first violation found.
func Conformance(factory func() (Machine, *mem.Space, *mem.Array)) error {
	if err := confAccounting(factory); err != nil {
		return err
	}
	if err := confProgress(factory); err != nil {
		return err
	}
	if err := confDeterminism(factory); err != nil {
		return err
	}
	return confLocality(factory)
}

func confAccounting(factory func() (Machine, *mem.Space, *mem.Array)) error {
	m, _, arr := factory()
	e := sim.NewEngine()
	run := stats.NewRun(m.P())
	e.Spawn("conf", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			m.Read(p, &run.Procs[0], 0, arr.At(i))
		}
		for i := 0; i < 5; i++ {
			m.Write(p, &run.Procs[0], 0, arr.At(i))
		}
	})
	if err := e.Run(); err != nil {
		return fmt.Errorf("conformance/accounting: %w", err)
	}
	if run.Procs[0].Reads != 10 || run.Procs[0].Writes != 5 {
		return fmt.Errorf("conformance/accounting: reads=%d writes=%d, want 10/5",
			run.Procs[0].Reads, run.Procs[0].Writes)
	}
	return nil
}

func confProgress(factory func() (Machine, *mem.Space, *mem.Array)) error {
	m, _, arr := factory()
	e := sim.NewEngine()
	// A machine that livelocks never returns from an access: interrupt
	// the run instead of spinning forever.
	watchdog := time.AfterFunc(time.Minute, e.Interrupt)
	defer watchdog.Stop()
	run := stats.NewRun(m.P())
	limit := sim.Micros(1e9) // any access loop must finish well inside this
	var violation error
	e.Spawn("conf", func(p *sim.Proc) {
		last := p.Now()
		for i := 0; i < 200; i++ {
			node := i % m.P()
			m.Read(p, &run.Procs[node], node, arr.At(i%arr.N))
			if p.Now() < last {
				violation = fmt.Errorf("conformance/progress: clock moved backwards")
				return
			}
			if p.Now() > limit {
				violation = fmt.Errorf("conformance/progress: %d accesses took %v, more than %v", i+1, p.Now(), limit)
				return
			}
			last = p.Now()
		}
	})
	if err := e.Run(); err != nil {
		return fmt.Errorf("conformance/progress: %w", err)
	}
	return violation
}

func confDeterminism(factory func() (Machine, *mem.Space, *mem.Array)) error {
	trial := func() (sim.Time, uint64) {
		m, _, arr := factory()
		e := sim.NewEngine()
		run := stats.NewRun(m.P())
		e.Spawn("conf", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				node := (i * 7) % m.P()
				if i%3 == 0 {
					m.Write(p, &run.Procs[node], node, arr.At((i*13)%arr.N))
				} else {
					m.Read(p, &run.Procs[node], node, arr.At((i*13)%arr.N))
				}
			}
		})
		if err := e.Run(); err != nil {
			return -1, 0
		}
		return e.Now(), run.Messages()
	}
	t1, m1 := trial()
	t2, m2 := trial()
	if t1 != t2 || m1 != m2 {
		return fmt.Errorf("conformance/determinism: %v/%d vs %v/%d", t1, m1, t2, m2)
	}
	return nil
}

// CheckInvariants checks a cached machine's (Target's, CLogP's)
// coherence directory against every node's cache — see
// coherence.Engine.CheckInvariants.  The other machines keep no
// coherence state and always pass.
func CheckInvariants(m Machine) error {
	if c, ok := m.(*cachedMachine); ok {
		return c.eng.CheckInvariants()
	}
	return nil
}

// NetworkConformance checks that a network backend obeys the contract
// every tier — detailed, LogP, flow — must satisfy behind the Network
// interface, independent of its timing model:
//
//  1. conservation: every message handed to the backend is counted,
//     and counted exactly once, in its traffic statistics;
//  2. monotone delivery: a message is never delivered before it was
//     sent plus its contention-free latency, waiting is never negative,
//     and back-to-back messages on the same (src, dst) pair issued at
//     nondecreasing times are delivered at nondecreasing times;
//  3. deterministic replay: driving a fresh backend twice through the
//     same access pattern yields identical schedules and statistics —
//     and so does the same backend after a Reset, which is the runpool
//     rebind contract.
//
// Tests call it once per registered tier (see NetworkTiers).
func NetworkConformance(tier NetworkTier, topoName string, p int) error {
	if err := netConservation(tier, topoName, p); err != nil {
		return err
	}
	if err := netMonotone(tier, topoName, p); err != nil {
		return err
	}
	return netReplay(tier, topoName, p)
}

func netConservation(tier NetworkTier, topoName string, p int) error {
	n, err := tier.New(topoName, p)
	if err != nil {
		return fmt.Errorf("net-conformance/%s: %w", tier.Name, err)
	}
	var now sim.Time
	var sent, bytes uint64
	for i := 0; i < 100; i++ {
		src := i % p
		dst := (i*3 + 1) % p
		if dst == src {
			dst = (dst + 1) % p
		}
		size := 8 + i%25
		d := n.Xfer(now, src, dst, size)
		sent++
		bytes += uint64(size)
		if d.At > now {
			now = d.At
		}
	}
	st := n.Stats()
	if st.Messages != sent {
		return fmt.Errorf("net-conformance/%s: carried %d messages, counted %d",
			tier.Name, sent, st.Messages)
	}
	if st.Bytes != bytes {
		return fmt.Errorf("net-conformance/%s: carried %d bytes, counted %d",
			tier.Name, bytes, st.Bytes)
	}
	return nil
}

func netMonotone(tier NetworkTier, topoName string, p int) error {
	n, err := tier.New(topoName, p)
	if err != nil {
		return fmt.Errorf("net-conformance/%s: %w", tier.Name, err)
	}
	var now, lastAt sim.Time
	for i := 0; i < 50; i++ {
		d := n.Xfer(now, 0, p-1, 16)
		if d.At < now+d.Latency {
			return fmt.Errorf("net-conformance/%s: message %d delivered at %v, before send %v + latency %v",
				tier.Name, i, d.At, now, d.Latency)
		}
		if d.Wait < 0 {
			return fmt.Errorf("net-conformance/%s: message %d has negative wait %v",
				tier.Name, i, d.Wait)
		}
		if d.At < lastAt {
			return fmt.Errorf("net-conformance/%s: delivery went backwards (%v after %v)",
				tier.Name, d.At, lastAt)
		}
		lastAt = d.At
		now += 5 // issue faster than the link drains: forces queueing/sharing
	}
	return nil
}

// netDrive runs one fixed pseudo-random pattern and fingerprints the
// resulting schedule.
func netDrive(n Network, p int) (sum sim.Time, st NetStats) {
	var now sim.Time
	for i := 0; i < 300; i++ {
		src := (i * 5) % p
		dst := (i*11 + 3) % p
		if dst == src {
			dst = (dst + 1) % p
		}
		at := now + sim.Time(i%7)
		if i%16 == 0 {
			n.Settle(now)
		}
		d := n.Xfer(at, src, dst, 8+(i*13)%25)
		sum += d.At + d.Wait
		if i%4 == 0 && d.At > now {
			now = d.At
		}
	}
	st = n.Stats()
	return sum, st
}

func netReplay(tier NetworkTier, topoName string, p int) error {
	fresh := func() (Network, error) { return tier.New(topoName, p) }
	a, err := fresh()
	if err != nil {
		return fmt.Errorf("net-conformance/%s: %w", tier.Name, err)
	}
	b, err := fresh()
	if err != nil {
		return fmt.Errorf("net-conformance/%s: %w", tier.Name, err)
	}
	sumA, stA := netDrive(a, p)
	sumB, stB := netDrive(b, p)
	if sumA != sumB || stA != stB {
		return fmt.Errorf("net-conformance/%s: replay diverged (%v/%+v vs %v/%+v)",
			tier.Name, sumA, stA, sumB, stB)
	}
	// Reset must restore the post-construction state exactly.
	a.Reset()
	sumR, stR := netDrive(a, p)
	if sumR != sumA || stR != stA {
		return fmt.Errorf("net-conformance/%s: run after Reset diverged (%v/%+v vs %v/%+v)",
			tier.Name, sumR, stR, sumA, stA)
	}
	return nil
}

func confLocality(factory func() (Machine, *mem.Space, *mem.Array)) error {
	cost := func(node, elem int) (sim.Time, error) {
		m, _, arr := factory()
		e := sim.NewEngine()
		run := stats.NewRun(m.P())
		var d sim.Time
		e.Spawn("conf", func(p *sim.Proc) {
			t0 := p.Now()
			m.Read(p, &run.Procs[node], node, arr.At(elem))
			d = p.Now() - t0
		})
		if err := e.Run(); err != nil {
			return 0, err
		}
		return d, nil
	}
	m, _, arr := factory()
	lo0, _ := arr.OwnerRange(0)
	local, err := cost(0, lo0)
	if err != nil {
		return fmt.Errorf("conformance/locality: %w", err)
	}
	remoteNode := m.P() - 1
	remote, err := cost(remoteNode, lo0)
	if err != nil {
		return fmt.Errorf("conformance/locality: %w", err)
	}
	if local > remote {
		return fmt.Errorf("conformance/locality: local read (%v) dearer than remote (%v)",
			local, remote)
	}
	return nil
}
