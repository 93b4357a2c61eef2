package sched

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/work"
)

// Replay runs one IR superstep exactly as scheduled: each processor is
// charged its compute work, then injects every send at the send's explicit
// slot. This prices a lowered schedule as-is — no re-scheduling — under
// whatever cost model the machine carries, and is what the DAG experiments
// drive. Like the schedulers it panics on a step work.CheckSends rejects;
// the engine panics on a processor injecting two flits in one slot.
func Replay(m *bsp.Machine, st *work.Step) bsp.Stats {
	cp := compile(m, st)
	return m.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		if i < len(st.Work) {
			c.Charge(int(st.Work[i]))
		}
		for k := cp.row[i]; k < cp.row[i+1]; k++ {
			cp.inject(c, k, cp.sends[cp.idx[k]].Slot)
		}
	})
}

// ReplayAll replays every superstep of the IR in order and returns the
// per-superstep stats. It panics if the IR was built for another machine
// size.
func ReplayAll(m *bsp.Machine, ir *work.IR) []bsp.Stats {
	if ir.P != m.P() {
		panic(fmt.Sprintf("sched: IR built for p=%d but machine has p=%d", ir.P, m.P()))
	}
	out := make([]bsp.Stats, len(ir.Steps))
	for step := range ir.Steps {
		out[step] = Replay(m, &ir.Steps[step])
	}
	return out
}
