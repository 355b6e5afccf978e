package app

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spasm/internal/machine"
	"spasm/internal/mem"
)

// TestSyncStressProperty runs randomized workloads mixing locks, flags,
// barriers and shared references on every machine kind and checks the
// structural invariants: mutual exclusion holds, every critical section
// completes, barriers never tear, and the run terminates (no deadlock).
func TestSyncStressProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := []int{2, 4, 8}[rng.Intn(3)]
		kind := machine.Kinds()[rng.Intn(len(machine.Kinds()))]
		rounds := 3 + rng.Intn(4)

		var (
			locks   []*SpinLock
			bar     *Barrier
			arr     *mem.Array
			inside  int
			maxIn   int
			crits   int
			byRound = make([]int, rounds)
		)
		prog := &testProg{
			name: "stress",
			setup: func(c *Ctx) {
				for i := 0; i < 3; i++ {
					locks = append(locks, c.NewLock(fmt.Sprintf("l%d", i), i%p))
				}
				bar = c.NewBarrier("b", p, 0)
				arr = c.Space.Alloc("x", 64*p, 8, mem.Blocked)
			},
			body: func(pr *Proc) {
				myRng := rand.New(rand.NewSource(seed*100 + int64(pr.ID)))
				for r := 0; r < rounds; r++ {
					for step := 0; step < 5; step++ {
						switch myRng.Intn(3) {
						case 0:
							l := locks[myRng.Intn(len(locks))]
							l.Lock(pr)
							inside++
							if inside > maxIn {
								maxIn = inside
							}
							crits++
							pr.Compute(int64(myRng.Intn(40)))
							inside--
							l.Unlock(pr)
						case 1:
							i := myRng.Intn(arr.N)
							pr.ReadElem(arr, i)
							pr.WriteElem(arr, i)
						default:
							pr.Compute(int64(myRng.Intn(100)))
						}
					}
					bar.Arrive(pr)
					byRound[r]++
					bar.Arrive(pr)
				}
			},
		}
		if _, err := Execute(prog, machine.Config{Kind: kind, Topology: "mesh", P: p}, Options{}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if maxIn > 1 {
			return false
		}
		if crits < 0 {
			return false
		}
		for _, c := range byRound {
			if c != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFlagSetBeforeWait ensures a waiter arriving after the signal does
// not block.
func TestFlagSetBeforeWait(t *testing.T) {
	var flag *Flag
	runProg(t, 2, machine.Target,
		func(c *Ctx) { flag = c.NewFlag("f", 0) },
		func(p *Proc) {
			if p.ID == 0 {
				flag.Set(p)
			} else {
				p.Compute(100000) // arrive long after the set
				flag.Wait(p)
			}
		})
}

// TestManyWaitersOneLock checks heavy contention converges and is fair
// enough that every processor gets the lock.
func TestManyWaitersOneLock(t *testing.T) {
	var (
		lock *SpinLock
		got  = map[int]int{}
	)
	runProg(t, 8, machine.Target,
		func(c *Ctx) { lock = c.NewLock("l", 0) },
		func(p *Proc) {
			for i := 0; i < 10; i++ {
				lock.Lock(p)
				got[p.ID]++
				p.Compute(30)
				lock.Unlock(p)
			}
		})
	for id := 0; id < 8; id++ {
		if got[id] != 10 {
			t.Errorf("proc %d acquired %d times", id, got[id])
		}
	}
}
