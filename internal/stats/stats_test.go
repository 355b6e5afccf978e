package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"spasm/internal/sim"
)

func TestBucketNames(t *testing.T) {
	want := []string{"compute", "memory", "latency", "contention", "sync"}
	for b := Bucket(0); b < NumBuckets; b++ {
		if b.String() != want[b] {
			t.Errorf("bucket %d name %q, want %q", b, b.String(), want[b])
		}
	}
	if !strings.Contains(Bucket(99).String(), "99") {
		t.Error("out-of-range bucket name")
	}
}

func TestProcAddAndBusy(t *testing.T) {
	var p Proc
	p.Add(Compute, 100)
	p.Add(Latency, 50)
	p.Add(Latency, 25)
	if p.Time[Latency] != 75 {
		t.Errorf("latency = %v", p.Time[Latency])
	}
	if p.Busy() != 175 {
		t.Errorf("busy = %v", p.Busy())
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative charge")
		}
	}()
	var p Proc
	p.Add(Sync, -1)
}

func TestRunAggregation(t *testing.T) {
	r := NewRun(4)
	for i := range r.Procs {
		r.Procs[i].Add(Contention, sim.Time(10*(i+1)))
		r.Procs[i].Messages = uint64(i)
		r.Procs[i].Finish = sim.Time(100 * (i + 1))
	}
	r.Complete()
	if r.P() != 4 {
		t.Errorf("P = %d", r.P())
	}
	if r.Sum(Contention) != 100 {
		t.Errorf("sum = %v", r.Sum(Contention))
	}
	if r.Mean(Contention) != 25 {
		t.Errorf("mean = %v", r.Mean(Contention))
	}
	if r.Total != 400 {
		t.Errorf("total = %v", r.Total)
	}
	if r.Messages() != 6 {
		t.Errorf("messages = %d", r.Messages())
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestProcIDsAssigned(t *testing.T) {
	r := NewRun(3)
	for i, p := range r.Procs {
		if p.ID != i {
			t.Errorf("proc %d has ID %d", i, p.ID)
		}
	}
}

// Property: Sum == sum of per-proc values; Mean <= max; Total == max Finish.
func TestAggregateProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			vals = []uint16{0}
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		r := NewRun(len(vals))
		var sum sim.Time
		var max sim.Time
		for i, v := range vals {
			d := sim.Time(v)
			r.Procs[i].Add(Latency, d)
			r.Procs[i].Finish = d
			sum += d
			if d > max {
				max = d
			}
		}
		r.Complete()
		return r.Sum(Latency) == sum && r.Total == max && r.Mean(Latency) <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
