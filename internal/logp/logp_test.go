package logp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spasm/internal/network"
	"spasm/internal/sim"
)

func TestDefaultL(t *testing.T) {
	if DefaultL != sim.Micros(1.6) {
		t.Errorf("DefaultL = %v, want 1.6us", DefaultL)
	}
}

// TestGapMatchesPaper checks the g values quoted in section 5 of the
// paper: 3.2/p us (full), 1.6 us (cube), 0.8*px us (mesh).
func TestGapMatchesPaper(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 32, 64} {
		full := GapFor(network.NewFull(p), 32, sim.SerialByte)
		if want := sim.Micros(3.2 / float64(p)); full != want {
			t.Errorf("g(full,%d) = %v, want %v", p, full, want)
		}
		cube := GapFor(network.NewCube(p), 32, sim.SerialByte)
		if want := sim.Micros(1.6); cube != want {
			t.Errorf("g(cube,%d) = %v, want %v", p, cube, want)
		}
		m := network.NewMesh(p)
		mesh := GapFor(m, 32, sim.SerialByte)
		if want := sim.Micros(0.8 * float64(m.Cols())); mesh != want {
			t.Errorf("g(mesh,%d) = %v, want %v", p, mesh, want)
		}
	}
}

func TestGapOrdering(t *testing.T) {
	// For p >= 8 the paper's parameters order full < cube < mesh.
	for _, p := range []int{8, 16, 32, 64} {
		full := GapFor(network.NewFull(p), 32, sim.SerialByte)
		cube := GapFor(network.NewCube(p), 32, sim.SerialByte)
		mesh := GapFor(network.NewMesh(p), 32, sim.SerialByte)
		if !(full < cube && cube < mesh) {
			t.Errorf("p=%d: g not ordered: full=%v cube=%v mesh=%v", p, full, cube, mesh)
		}
	}
}

func TestFirstMessageUndelayed(t *testing.T) {
	n := New(4, DefaultL, sim.Micros(1.6), Combined)
	x := n.Message(0, 0, 1)
	if x.SendAt != 0 || x.Wait != 0 {
		t.Errorf("first message delayed: %+v", x)
	}
	if x.Deliver != DefaultL {
		t.Errorf("deliver = %v, want %v", x.Deliver, DefaultL)
	}
}

func TestSenderGapEnforced(t *testing.T) {
	g := sim.Micros(1.6)
	n := New(4, DefaultL, g, Combined)
	n.Message(0, 0, 1)
	x := n.Message(100, 0, 2) // issued only 100 units after the first send
	if x.SendAt != g {
		t.Errorf("second send at %v, want %v", x.SendAt, g)
	}
	if x.Wait != g-100+0 {
		t.Errorf("wait = %v, want %v", x.Wait, g-100)
	}
}

func TestReceiverGapEnforced(t *testing.T) {
	g := sim.Micros(1.6)
	n := New(4, DefaultL, g, Combined)
	n.Message(0, 1, 0) // node 0 receives at L
	x := n.Message(0, 2, 0)
	arrive := x.SendAt + DefaultL
	wantDeliver := DefaultL + g // first receive at L, next no sooner than L+g
	if x.Deliver != wantDeliver {
		t.Errorf("deliver = %v, want %v", x.Deliver, wantDeliver)
	}
	if x.Wait != x.Deliver-arrive {
		t.Errorf("wait accounting wrong: %+v", x)
	}
}

func TestCombinedPortCouplesSendAndReceive(t *testing.T) {
	// Strict LogP: a node that just received cannot send for g.
	g := sim.Micros(1.6)
	n := New(4, DefaultL, g, Combined)
	x1 := n.Message(0, 1, 0) // node 0 receives at L
	x2 := n.Message(x1.Deliver, 0, 1)
	if x2.SendAt != x1.Deliver+g {
		t.Errorf("send after receive at %v, want %v", x2.SendAt, x1.Deliver+g)
	}
}

func TestPerClassPortsDecouple(t *testing.T) {
	// The ablation: a send right after a receive is NOT gapped.
	g := sim.Micros(1.6)
	n := New(4, DefaultL, g, PerClass)
	x1 := n.Message(0, 1, 0)
	x2 := n.Message(x1.Deliver, 0, 1)
	if x2.SendAt != x1.Deliver {
		t.Errorf("per-class send delayed: %v, want %v", x2.SendAt, x1.Deliver)
	}
	// ... but two sends still gap.
	x3 := n.Message(x2.SendAt, 0, 2)
	if x3.SendAt != x2.SendAt+g {
		t.Errorf("per-class send-send gap: %v, want %v", x3.SendAt, x2.SendAt+g)
	}
}

func TestPerClassLessPessimistic(t *testing.T) {
	// Over a request-reply workload the PerClass discipline must never
	// accumulate more wait time than Combined.
	run := func(mode PortMode) sim.Time {
		n := New(4, DefaultL, sim.Micros(1.6), mode)
		var wait sim.Time
		now := sim.Time(0)
		for i := 0; i < 50; i++ {
			req := n.Message(now, 0, 1)
			rep := n.Message(req.Deliver, 1, 0)
			wait += req.Wait + rep.Wait
			now = rep.Deliver + 10
		}
		return wait
	}
	if run(PerClass) > run(Combined) {
		t.Error("PerClass accumulated more contention than Combined")
	}
}

func TestMessageCounting(t *testing.T) {
	n := New(2, DefaultL, 0, Combined)
	for i := 0; i < 5; i++ {
		n.Message(sim.Time(i*10000), 0, 1)
	}
	if n.Messages != 5 {
		t.Errorf("Messages = %d", n.Messages)
	}
}

func TestZeroGap(t *testing.T) {
	n := New(2, DefaultL, 0, Combined)
	x1 := n.Message(0, 0, 1)
	x2 := n.Message(0, 0, 1)
	if x1.Wait != 0 || x2.Wait != 0 {
		t.Error("zero-g network produced contention")
	}
}

func TestSelfMessagePanics(t *testing.T) {
	n := New(2, DefaultL, 0, Combined)
	defer func() {
		if recover() == nil {
			t.Error("no panic on self message")
		}
	}()
	n.Message(0, 1, 1)
}

func TestValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, DefaultL, 0, Combined) },
		func() { New(2, -1, 0, Combined) },
		func() { New(2, DefaultL, -1, Combined) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	if Combined.String() != "combined" || PerClass.String() != "per-class" {
		t.Error("PortMode strings")
	}
	if PortMode(7).String() == "" {
		t.Error("unknown PortMode string")
	}
}

// Property: consecutive events of the gapped class at one node are always
// at least g apart, and Wait is exactly the sum of endpoint stalls.
func TestGapInvariantProperty(t *testing.T) {
	f := func(steps []uint8, gRaw uint16) bool {
		g := sim.Time(gRaw)
		n := New(4, DefaultL, g, Combined)
		var lastEvent [4]sim.Time
		for i := range lastEvent {
			lastEvent[i] = -g
		}
		now := sim.Time(0)
		for _, s := range steps {
			src := int(s) % 4
			dst := (src + 1 + int(s/8)%3) % 4
			if src == dst {
				continue
			}
			x := n.Message(now, src, dst)
			if x.SendAt < now || x.SendAt < lastEvent[src]+g {
				return false
			}
			if x.Deliver < x.SendAt+DefaultL || x.Deliver < lastEvent[dst]+g {
				return false
			}
			if x.Wait != (x.SendAt-now)+(x.Deliver-x.Arrive) {
				return false
			}
			lastEvent[src] = x.SendAt
			if x.Deliver > lastEvent[dst] {
				lastEvent[dst] = x.Deliver
			}
			now += sim.Time(s) // non-decreasing issue times
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// traffic drives a fixed message pattern and returns every schedule, for
// comparing a reset or recycled net against a fresh one.
func traffic(n *Net) []Xmit {
	var out []Xmit
	now := sim.Time(0)
	for i := 0; i < 40; i++ {
		src := i % n.P()
		dst := (src + 1 + i%3) % n.P()
		if src == dst {
			continue
		}
		x := n.Message(now, src, dst)
		out = append(out, x)
		now += sim.Time(i%5) * 100
	}
	return out
}

// TestResetIdentity: a reset net must schedule exactly like a fresh one
// in both port modes — no port value of the previous run may survive.
func TestResetIdentity(t *testing.T) {
	for _, mode := range []PortMode{Combined, PerClass} {
		g := sim.Micros(1.6)
		n := New(8, DefaultL, g, mode)
		want := traffic(n)
		for round := 0; round < 3; round++ {
			n.Reset()
			if n.Messages != 0 || n.Bytes != 0 || n.Crossing != 0 || n.Observer != nil {
				t.Fatalf("%v round %d: counters survived Reset", mode, round)
			}
			got := traffic(n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v round %d message %d: got %+v, want %+v",
						mode, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDeliverIsMessage: Deliver is Message without the schedule written
// out, counting the size Message books as none.  Twin nets carry the same seeded traffic, one through each call,
// in both port modes, with the adaptive g off and on, an Observer attached:
// every delivery time and wait, the Messages and Crossing counters after
// every message, and every Observer call are the same.
func TestDeliverIsMessage(t *testing.T) {
	type seen struct {
		now      sim.Time
		x        network.Xmit
		src, dst int
	}
	const p = 16
	for _, mode := range []PortMode{Combined, PerClass} {
		for _, adaptive := range []bool{false, true} {
			for seed := int64(1); seed <= 20; seed++ {
				var calls [2][]seen
				var nets [2]*Net
				for i := range nets {
					n := New(p, DefaultL, sim.Micros(1.6), mode)
					if adaptive {
						n.Crosses = func(src, dst int) bool { return src < p/2 != (dst < p/2) }
					}
					n.Observer = func(now sim.Time, x network.Xmit, src, dst, bytes int, links []int) {
						if links != nil {
							t.Fatalf("LogP showed links %v", links)
						}
						calls[i] = append(calls[i], seen{now, x, src, dst})
					}
					nets[i] = n
				}
				rng := rand.New(rand.NewSource(seed))
				now := sim.Time(0)
				for k := 0; k < 400; k++ {
					src := rng.Intn(p)
					dst := (src + 1 + rng.Intn(p-1)) % p
					if rng.Intn(4) == 0 {
						dst = (src + 1) % p // a hot pair: the gap bites
					}
					x := nets[0].Message(now, src, dst)
					deliver, wait := nets[1].Deliver(now, src, dst, 8)
					if deliver != x.Deliver || wait != x.Wait {
						t.Fatalf("%v adaptive=%v seed %d message %d: Deliver = (%v, %v), Message = %+v",
							mode, adaptive, seed, k, deliver, wait, x)
					}
					if nets[0].Messages != nets[1].Messages || nets[0].Crossing != nets[1].Crossing {
						t.Fatalf("%v adaptive=%v seed %d message %d: counters %d/%d vs %d/%d", mode, adaptive, seed, k,
							nets[1].Messages, nets[1].Crossing, nets[0].Messages, nets[0].Crossing)
					}
					// Issue times wander both ways: the machines book a
					// reply at a time ahead of the next request's.
					now = max(0, now+sim.Time(rng.Intn(3000))-1000)
				}
				if len(calls[1]) != 400 || !slices.Equal(calls[0], calls[1]) {
					t.Fatalf("%v adaptive=%v seed %d: the Observer saw %d messages through Deliver, %d through Message, or not the same ones",
						mode, adaptive, seed, len(calls[1]), len(calls[0]))
				}
				if nets[0].Bytes != 0 || nets[1].Bytes != 8*400 {
					t.Fatalf("%v adaptive=%v seed %d: counted %d bytes through Message, %d through Deliver; want 0 and %d",
						mode, adaptive, seed, nets[0].Bytes, nets[1].Bytes, 8*400)
				}
				if adaptive && (nets[1].Crossing == 0 || nets[1].Crossing == nets[1].Messages) {
					t.Fatalf("%v seed %d: %d of %d messages crossed; the adaptive gap was not exercised", mode, seed, nets[1].Crossing, nets[1].Messages)
				}
			}
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "logp: message to self at node 3" {
				t.Errorf("Deliver to self panicked with %v", r)
			}
		}()
		New(p, DefaultL, 0, Combined).Deliver(0, 3, 3, 8)
	}()
}
