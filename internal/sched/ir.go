package sched

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/work"
)

// This file is the scheduler package's IR frontend: work.IR supersteps
// compile into the same columnar form (compiled) the Plan fast path uses,
// so the scheduler bodies with IR entry points (UnbalancedSendIR,
// NaiveSendIR) run unchanged over either representation. The IR path
// additionally preserves the workload's explicit slot schedule,
// which Replay injects verbatim — pricing a schedule exactly as lowered
// (the DAG experiments) rather than re-scheduling it.

// compileIR flattens one IR superstep into the scheduler's columnar form:
// a single counting pass sizes the per-processor rows, then a cursor pass
// fills messages in stored send order, tallying the same x/y/n columns
// compile produces — plus the explicit slot column the IR carries.
// Validation is work.IR.Validate plus the machine-shape match; like
// compile, it panics, so callers holding adversarial input must Validate
// first.
func compileIR(m *bsp.Machine, ir *work.IR, step int) *compiled {
	if err := ir.Validate(); err != nil {
		panic(err.Error())
	}
	p := m.P()
	if ir.P != p {
		panic(fmt.Sprintf("sched: IR built for p=%d but machine has p=%d", ir.P, p))
	}
	if step < 0 || step >= len(ir.Steps) {
		panic(fmt.Sprintf("sched: superstep %d out of range [0, %d)", step, len(ir.Steps)))
	}
	sends := ir.Steps[step].Sends
	c := &compiled{
		msgs:  make([]bsp.Msg, len(sends)),
		row:   make([]int, p+1),
		off:   make([]int, len(sends)),
		slots: make([]int, len(sends)),
		x:     make([]int, p),
		y:     make([]int, p),
	}
	for i := range sends {
		c.row[sends[i].Proc+1]++
	}
	for i := 0; i < p; i++ {
		c.row[i+1] += c.row[i]
	}
	cursor := make([]int, p)
	copy(cursor, c.row[:p])
	for i := range sends {
		s := &sends[i]
		k := cursor[s.Proc]
		cursor[s.Proc]++
		c.msgs[k] = s.Msg()
		c.off[k] = c.x[s.Proc]
		c.slots[k] = s.Slot
		f := s.Flits()
		c.x[s.Proc] += f
		c.y[s.Dst] += f
	}
	for i := 0; i < p; i++ {
		c.n += c.x[i]
	}
	return c
}

// Replay runs one IR superstep exactly as scheduled: each processor is
// charged its compute work, then injects every send at the send's explicit
// slot. This prices a lowered schedule as-is — no re-scheduling — under
// whatever cost model the machine carries, and is what the oracle's
// conformance and precedence invariants and the DAG experiments drive.
func Replay(m *bsp.Machine, ir *work.IR, step int) bsp.Stats {
	cp := compileIR(m, ir, step)
	workVec := ir.Steps[step].Work
	return m.Superstep(func(c *bsp.Ctx) {
		i := c.ID()
		if i < len(workVec) {
			c.Charge(int(workVec[i]))
		}
		for k := cp.row[i]; k < cp.row[i+1]; k++ {
			c.SendAt(cp.slots[k], int(cp.msgs[k].Dst), cp.msgs[k])
		}
	})
}

// ReplayAll replays every superstep of the IR in order and returns the
// per-superstep stats.
func ReplayAll(m *bsp.Machine, ir *work.IR) []bsp.Stats {
	out := make([]bsp.Stats, len(ir.Steps))
	for step := range ir.Steps {
		out[step] = Replay(m, ir, step)
	}
	return out
}

// UnbalancedSendIR runs Unbalanced-Send (Theorem 6.2) over one IR
// superstep's traffic, ignoring the IR's own slot schedule — the scheduler
// draws its own random phases, with the RNG draw order of the Plan entry
// point.
func UnbalancedSendIR(m *bsp.Machine, ir *work.IR, step int, opt Options) Result {
	return unbalancedSendCompiled(m, compileIR(m, ir, step), opt)
}

// NaiveSendIR is NaiveSend over one IR superstep's traffic.
func NaiveSendIR(m *bsp.Machine, ir *work.IR, step int) Result {
	return naiveSendCompiled(m, compileIR(m, ir, step))
}
