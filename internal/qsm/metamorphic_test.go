package qsm

import (
	"testing"
	"testing/quick"

	"parbw/internal/model"
)

// Metamorphic properties of the QSM cost accounting.

// Adding a request never decreases phase cost, under either model.
func TestQSMCostMonotoneInRequests(t *testing.T) {
	costs := []model.Cost{model.QSMg(4), model.QSMm(4)}
	f := func(seed uint64) bool {
		p := 8
		k := int(seed % 4)
		for _, cost := range costs {
			run := func(extra bool) float64 {
				m := New(Config{P: p, Mem: 64, Cost: cost, Seed: seed})
				m.Phase(func(c *Ctx) {
					for j := 0; j < k; j++ {
						c.WriteAt(j, c.ID()*8+j, 1)
					}
					if extra && c.ID() == 0 {
						c.WriteAt(k, 60, 5)
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

// Raising contention (more readers of one cell) never decreases cost.
func TestQSMCostMonotoneInContention(t *testing.T) {
	f := func(seed uint64) bool {
		p := 16
		readers := 1 + int(seed%15)
		run := func(r int) float64 {
			m := New(Config{P: p, Mem: 4, Cost: model.QSMg(2), Seed: seed})
			m.Phase(func(c *Ctx) {
				if c.ID() < r {
					c.Read(0)
				}
			})
			return m.Time()
		}
		return run(readers) <= run(p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The final memory state depends only on the writes, not on the phase's
// request step assignment (slots affect cost, not semantics).
func TestQSMSlotsDoNotAffectSemantics(t *testing.T) {
	run := func(stagger bool) []int64 {
		m := New(Config{P: 16, Mem: 16, Cost: model.QSMm(4), Seed: 5})
		m.Phase(func(c *Ctx) {
			slot := 0
			if stagger {
				slot = c.ID() % 4
			}
			c.WriteAt(slot, c.ID(), int64(c.ID()*3))
		})
		out := make([]int64, 16)
		for a := range out {
			out[a] = m.Load(a)
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot assignment changed memory at %d", i)
		}
	}
}
