package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spasm/internal/sim"
)

func TestXmitBasicTiming(t *testing.T) {
	f := NewFabric(NewFull(4))
	x := f.Reserve(0, 0, 1, 32)
	if x.Start != 0 || x.Latency != 32*sim.SerialByte || x.Wait != 0 {
		t.Errorf("idle xmit = %+v", x)
	}
	if x.End != sim.Micros(1.6) {
		t.Errorf("32-byte message end = %v, want 1.6us", x.End)
	}
}

func TestSameLinkSerializes(t *testing.T) {
	f := NewFabric(NewFull(4))
	x1 := f.Reserve(0, 0, 1, 32)
	x2 := f.Reserve(0, 0, 1, 32) // same pair, same link
	if x2.Start != x1.End {
		t.Errorf("second message starts at %v, want %v", x2.Start, x1.End)
	}
	if x2.Wait != x1.Latency {
		t.Errorf("second message waited %v, want %v", x2.Wait, x1.Latency)
	}
}

func TestInjectionPortSerializes(t *testing.T) {
	// Distinct destinations from the same source contend for the
	// source injection port even on the fully connected network.
	f := NewFabric(NewFull(4))
	x1 := f.Reserve(0, 0, 1, 32)
	x2 := f.Reserve(0, 0, 2, 32)
	if x2.Start != x1.End {
		t.Errorf("injection not serialized: %+v after %+v", x2, x1)
	}
}

func TestEjectionPortSerializes(t *testing.T) {
	// Distinct sources to the same destination contend for the
	// destination ejection port (hot-spot contention on full network).
	f := NewFabric(NewFull(4))
	x1 := f.Reserve(0, 1, 3, 32)
	x2 := f.Reserve(0, 2, 3, 32)
	if x2.Start != x1.End {
		t.Errorf("ejection not serialized: %+v after %+v", x2, x1)
	}
}

func TestDisjointPathsParallel(t *testing.T) {
	f := NewFabric(NewFull(4))
	x1 := f.Reserve(0, 0, 1, 32)
	x2 := f.Reserve(0, 2, 3, 32)
	if x2.Start != 0 || x2.Wait != 0 {
		t.Errorf("disjoint transfer delayed: %+v", x2)
	}
	_ = x1
}

func TestMeshSharedLinkContention(t *testing.T) {
	m := NewMesh(16) // 4x4, XY routing
	f := NewFabric(m)
	// 0->3 uses east links of row 0; 1->2 shares the link 1->2.
	x1 := f.Reserve(0, 0, 3, 32)
	x2 := f.Reserve(0, 1, 2, 32)
	if x2.Wait == 0 {
		t.Error("overlapping mesh routes did not contend")
	}
	_ = x1
}

func TestCircuitHeldWholeDuration(t *testing.T) {
	// Circuit switching: a long message holds all its links for the
	// full transmission, so a later message sharing ANY link waits for
	// the whole transfer.
	m := NewMesh(16)
	f := NewFabric(m)
	x1 := f.Reserve(0, 0, 3, 32) // holds links (0,1),(1,2),(2,3) until 1.6us
	x2 := f.Reserve(100, 2, 3, 8)
	if x2.Start != x1.End {
		t.Errorf("later message entered a held circuit: %+v vs %+v", x2, x1)
	}
}

func TestFabricCounters(t *testing.T) {
	f := NewFabric(NewFull(4))
	f.Reserve(0, 0, 1, 32)
	f.Reserve(0, 1, 2, 8)
	if f.Messages != 2 || f.Bytes != 40 {
		t.Errorf("messages=%d bytes=%d", f.Messages, f.Bytes)
	}
}

func TestDegradedLinkSlowsCircuit(t *testing.T) {
	m := NewMesh(16)
	f := NewFabric(m)
	healthy := f.Reserve(0, 0, 3, 32)
	f.Degrade(m.Route(0, 3)[1], 4) // second east link on the path
	slow := f.Reserve(healthy.End, 0, 3, 32)
	if slow.Latency != 4*healthy.Latency {
		t.Errorf("degraded latency %v, want 4x %v", slow.Latency, healthy.Latency)
	}
	// A route avoiding the degraded link is unaffected.
	other := f.Reserve(slow.End, 4, 7, 32)
	if other.Latency != healthy.Latency {
		t.Errorf("unaffected route latency %v", other.Latency)
	}
}

func TestDegradeValidation(t *testing.T) {
	f := NewFabric(NewFull(4))
	mustPanicT(t, func() { f.Degrade(-1, 2) })
	mustPanicT(t, func() { f.Degrade(10000, 2) })
	mustPanicT(t, func() { f.Degrade(1, 0) })
}

func TestZeroByteMessagePanics(t *testing.T) {
	f := NewFabric(NewFull(4))
	mustPanicT(t, func() { f.Reserve(0, 0, 1, 0) })
}

// Property: a reservation never starts before the requested time, never
// waits negative time, and resource free-times are monotone per resource.
func TestReserveProperty(t *testing.T) {
	f := func(msgs []struct {
		Now  uint16
		S, D uint8
		B    uint8
	}) bool {
		fab := NewFabric(NewMesh(16))
		var now sim.Time
		for _, m := range msgs {
			now += sim.Time(m.Now) // issue times non-decreasing, as in a real run
			src := int(m.S) % 16
			dst := int(m.D) % 16
			if src == dst {
				continue
			}
			bytes := int(m.B)%32 + 1
			x := fab.Reserve(now, src, dst, bytes)
			if x.Start < now || x.Wait != x.Start-now || x.End != x.Start+x.Latency {
				return false
			}
			if x.Latency != sim.Time(bytes)*sim.SerialByte {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// fabricTraffic drives seeded traffic, a quarter of it at one hot
// destination, and returns every schedule.
func fabricTraffic(f *Fabric, seed int64) []Xmit {
	p := f.Topology().P()
	rng := rand.New(rand.NewSource(seed))
	var out []Xmit
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		src := rng.Intn(p)
		dst := (src + 1 + rng.Intn(p-1)) % p
		if rng.Intn(4) == 0 && src != 0 {
			dst = 0
		}
		out = append(out, f.Reserve(now, src, dst, 1+rng.Intn(32)))
		now += sim.Time(rng.Intn(3)) * 200
	}
	return out
}

// TestFabricResetIdentity: a reset fabric must schedule exactly like a
// fresh one, with no link, injection or ejection port of the previous run
// still held, no link still degraded and every counter zeroed.
func TestFabricResetIdentity(t *testing.T) {
	for _, topo := range []Topology{NewMesh(16), NewFull(16)} {
		for seed := int64(1); seed <= 5; seed++ {
			want := fabricTraffic(NewFabric(topo), seed)
			f := NewFabric(topo)
			f.Observer = func(sim.Time, Xmit, int, int, int, []int) {}
			fabricTraffic(f, seed+100)
			f.Degrade(topo.Route(1, 0)[0], 3)
			fabricTraffic(f, seed+200)
			f.Reset()
			if f.Messages != 0 || f.Bytes != 0 || f.HopEvents != 0 || f.Observer != nil {
				t.Fatalf("%v seed %d: counters or Observer survived Reset", topo, seed)
			}
			got := fabricTraffic(f, seed)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v seed %d message %d: got %+v, want %+v", topo, seed, i, got[i], want[i])
				}
			}
		}
	}
}
