// Package engine is the shared superstep core under every machine simulator
// in this repository. The BSP, QSM, and PRAM machines all execute the same
// abstract loop — reset per-processor contexts, run the per-processor
// programs one after another on the driver goroutine, run a model-specific
// merge that validates schedules and computes the step's cost, then commit:
// advance the simulated clock, number the step, and notify the machine's
// observer. Each machine runs its own processor loop and merge; Core is the
// commit they share.
//
// Core also owns the recycled scratch buffers the merge strategies share
// (the per-step injection histogram and per-processor ledgers) and the
// observability layer of observer.go: a normalized per-step callback to the
// machine's observer plus cheap process-wide atomic counters that aggregate
// across every machine in the process (surfaced by `bandsim serve` on
// /statsz). The observer is the only place a committed step goes: Core keeps
// no record of past steps, and a machine's native per-step Stats is simply
// the return value of its step call.
//
// Costs are computed entirely inside the merge strategy, so Core cannot
// change any simulated time: it only adds the committed cost to the clock.
package engine

import "parbw/internal/model"

// Core is the superstep commit shared by every machine. Methods must be
// called from a single driver goroutine, mirroring the machines' contract.
type Core struct {
	label string
	p     int

	time  model.Time
	steps int

	hist    []int // recycled per-step injection/request histogram
	ledger  []int // recycled per-processor counter, length p
	offsets []int // recycled per-processor counter, length p (slab.go)

	obs Observer
}

// NewCore constructs a Core for a machine with p simulated processors.
// label names the machine family in StepStats ("bsp", "qsm", "pram"); obs,
// if non-nil, receives every committed step.
func NewCore(label string, p int, obs Observer) *Core {
	return &Core{label: label, p: p, obs: obs}
}

// Time returns the accumulated simulated time.
func (c *Core) Time() model.Time { return c.time }

// Steps returns the number of supersteps committed.
func (c *Core) Steps() int { return c.steps }

// Hist returns the recycled histogram buffer resized and zeroed to n slots.
// The returned slice is owned by the Core and valid until the next call.
func (c *Core) Hist(n int) []int {
	if cap(c.hist) < n {
		c.hist = make([]int, n)
	}
	h := c.hist[:n]
	for i := range h {
		h[i] = 0
	}
	return h
}

// Ledger returns the recycled per-processor counter buffer (length P),
// zeroed. The returned slice is owned by the Core and valid until the next
// call.
func (c *Core) Ledger() []int {
	if c.ledger == nil {
		c.ledger = make([]int, c.p)
	}
	for i := range c.ledger {
		c.ledger[i] = 0
	}
	return c.ledger
}

// Commit records one merged superstep: it stamps view with the machine
// label and the step's index, advances the clock by view.Cost, folds the
// step into the process-wide counters and hands it to the observer.
func (c *Core) Commit(view StepStats) {
	view.Machine = c.label
	view.Index = c.steps
	c.time += view.Cost
	c.steps++
	countStep(view)
	if c.obs != nil {
		c.obs.OnStep(view)
	}
}

// ResetClock clears time and step count. Scratch buffers and the observer
// are preserved, matching the machines' Reset semantics (processor RNG
// state lives in the machines).
func (c *Core) ResetClock() {
	c.time = 0
	c.steps = 0
}
