package bsp

import (
	"testing"

	"parbw/internal/model"
)

// benchMachine builds a default machine plus a representative communication
// superstep: every processor sends two single-flit messages on its
// auto-assigned injection slots.
func benchMachine(p int) (*Machine, func()) {
	m := New(Config{P: p, Cost: model.BSPm(32, 4), Seed: 1})
	body := func(c *Ctx) {
		c.Charge(4)
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
		c.Send((c.ID()+7)%p, 2, int64(c.ID()))
	}
	return m, func() { m.Superstep(body) }
}

func BenchmarkSuperstepMerge(b *testing.B) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// The merge path recycles its histogram, receive ledger and inbox buffers;
// after warmup a superstep must not allocate at all.
const superstepAllocBudget = 0

func TestSuperstepMergeAllocs(t *testing.T) {
	_, step := benchMachine(256)
	step() // warm the recycled buffers
	avg := testing.AllocsPerRun(50, step)
	if avg > superstepAllocBudget {
		t.Errorf("superstep allocates %.1f objects/op, budget %d", avg, superstepAllocBudget)
	}
}
