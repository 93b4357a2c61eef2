package bsp

import (
	"testing"
	"testing/quick"

	"parbw/internal/model"
)

// Metamorphic properties of the BSP cost accounting: relations that must
// hold between executions regardless of workload.

// Adding a message to a superstep never decreases its cost, under any model.
func TestCostMonotoneInMessages(t *testing.T) {
	costs := []model.Cost{
		model.BSPg(4, 8), model.BSPmLinear(4, 8), model.BSPm(4, 8),
		model.BSPSelfSched(4, 8),
	}
	f := func(seed uint64) bool {
		p := 16
		k := int(seed % 6)
		for _, cost := range costs {
			run := func(extra bool) float64 {
				m := New(Config{P: p, Cost: cost, Seed: seed})
				m.Superstep(func(c *Ctx) {
					for j := 0; j < k; j++ {
						c.SendAt(j, (c.ID()+j+1)%p, Msg{A: 1})
					}
					if extra && c.ID() == 0 {
						c.SendAt(k, 1, Msg{A: 2})
					}
				})
				return m.Time()
			}
			if run(true) < run(false)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Increasing local work never decreases cost.
func TestCostMonotoneInWork(t *testing.T) {
	f := func(seed uint64) bool {
		w := int(seed % 1000)
		run := func(extra int) float64 {
			m := New(Config{P: 4, Cost: model.BSPmLinear(2, 4), Seed: seed})
			m.Superstep(func(c *Ctx) { c.Charge(w + extra) })
			return m.Time()
		}
		return run(7) >= run(0)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Splitting one superstep's sends into two supersteps never reduces total
// time (each superstep pays the latency floor).
func TestSuperstepSplitNoCheaper(t *testing.T) {
	f := func(seed uint64) bool {
		p := 8
		k := 1 + int(seed%4)
		one := New(Config{P: p, Cost: model.BSPmLinear(2, 4), Seed: seed})
		one.Superstep(func(c *Ctx) {
			for j := 0; j < 2*k; j++ {
				c.SendAt(j, (c.ID()+1)%p, Msg{})
			}
		})
		two := New(Config{P: p, Cost: model.BSPmLinear(2, 4), Seed: seed})
		for half := 0; half < 2; half++ {
			two.Superstep(func(c *Ctx) {
				for j := 0; j < k; j++ {
					c.SendAt(j, (c.ID()+1)%p, Msg{})
				}
			})
		}
		return two.Time() >= one.Time()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Under the linear penalty, the cost of a superstep is invariant to how the
// same multiset of messages is distributed over senders' slots, as long as
// the histogram is a permutation of the original (relabeling slots).
func TestSlotRelabelInvariance(t *testing.T) {
	p := 8
	base := func(order []int) float64 {
		m := New(Config{P: p, Cost: model.BSPmLinear(2, 1), Seed: 1})
		m.Superstep(func(c *Ctx) {
			if c.ID() == 0 {
				for k, slot := range order {
					c.SendAt(slot, 1+k%(p-1), Msg{})
				}
			}
		})
		return m.Time()
	}
	// Same histogram {0,1,2,3} in different send orders.
	if base([]int{0, 1, 2, 3}) != base([]int{3, 2, 1, 0}) {
		t.Fatal("slot relabeling changed cost")
	}
}

// Exponential penalty always costs at least the linear penalty for the same
// execution.
func TestExpPenaltyDominatesLinear(t *testing.T) {
	f := func(seed uint64) bool {
		p := 16
		burst := 1 + int(seed%16)
		run := func(cost model.Cost) float64 {
			m := New(Config{P: p, Cost: cost, Seed: seed})
			m.Superstep(func(c *Ctx) {
				if c.ID() < burst {
					c.SendAt(0, (c.ID()+1)%p, Msg{})
				}
			})
			return m.Time()
		}
		return run(model.BSPm(2, 1)) >= run(model.BSPmLinear(2, 1))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Raising m never increases the cost of a fixed execution.
func TestCostMonotoneInBandwidth(t *testing.T) {
	f := func(seed uint64) bool {
		p := 16
		run := func(mm int) float64 {
			m := New(Config{P: p, Cost: model.BSPmLinear(mm, 1), Seed: seed})
			m.Superstep(func(c *Ctx) {
				c.SendAt(int(seed%4), (c.ID()+1)%p, Msg{})
			})
			return m.Time()
		}
		return run(8) <= run(2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
