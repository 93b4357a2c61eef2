// Package engine is the shared superstep core under every machine simulator
// in this repository. The BSP, QSM, and PRAM machines all execute the same
// abstract loop — reset per-processor contexts, run the per-processor
// programs one after another on the driver goroutine, run a model-specific
// merge that validates schedules and computes the step's cost, then commit:
// advance the simulated clock, retain the step's statistics, and notify the
// machine's observer.
// Before this package existed that loop was implemented once per machine;
// Core implements it exactly once, parameterized by the machine's native
// per-step Stats type S and its merge strategy.
//
// Core also owns the recycled scratch buffers the merge strategies share
// (the per-step injection histogram and a per-processor ledger), the
// retained trace, a fixed-size ring of recent steps that is always on, and
// the observability layer of observer.go: a normalized per-step callback to
// the machine's observer plus cheap process-wide atomic counters that
// aggregate across every machine in the process (surfaced by `bandsim serve`
// on /statsz).
//
// The merge strategy returns both the machine's native Stats value and a
// normalized StepStats view; Core commits the former and publishes the
// latter. Costs are computed entirely inside the merge strategy, so moving a
// machine onto Core cannot change any simulated time: Core only adds the
// returned cost to the clock, exactly as the per-machine loops did.
package engine

import "parbw/internal/model"

// ringCap is the capacity of the always-on recent-step ring.
const ringCap = 64

// Core is the generic superstep driver. S is the machine's native per-step
// statistics type (bsp.Stats, qsm.Stats, pram.Stats). Methods must be called
// from a single driver goroutine, mirroring the machines' contract.
type Core[S any] struct {
	label string
	p     int
	keep  bool

	time  model.Time
	steps int
	last  S
	trace []S

	ring  [ringCap]StepStats
	ringN int

	hist    []int // recycled per-step injection/request histogram
	ledger  []int // recycled per-processor counter, length p
	offsets []int // recycled per-processor counter, length p (slab.go)

	obs Observer
}

// NewCore constructs a Core for a machine with p simulated processors.
// label names the machine family in StepStats ("bsp", "qsm", "pram");
// keepTrace retains every step's native Stats for Trace; obs, if non-nil,
// receives every committed step.
func NewCore[S any](label string, p int, keepTrace bool, obs Observer) *Core[S] {
	return &Core[S]{
		label: label,
		p:     p,
		keep:  keepTrace,
		obs:   obs,
	}
}

// P returns the simulated processor count.
func (c *Core[S]) P() int { return c.p }

// Label returns the machine-family label reported in StepStats.
func (c *Core[S]) Label() string { return c.label }

// Time returns the accumulated simulated time.
func (c *Core[S]) Time() model.Time { return c.time }

// Steps returns the number of supersteps committed.
func (c *Core[S]) Steps() int { return c.steps }

// Last returns the native Stats of the most recent superstep.
func (c *Core[S]) Last() S { return c.last }

// Trace returns the retained per-superstep Stats (nil unless keepTrace).
func (c *Core[S]) Trace() []S { return c.trace }

// ChargeTime adds t units of simulated time outside any superstep.
func (c *Core[S]) ChargeTime(t model.Time) { c.time += t }

// Hist returns the recycled histogram buffer resized and zeroed to n slots.
// The returned slice is owned by the Core and valid until the next call.
func (c *Core[S]) Hist(n int) []int {
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
func (c *Core[S]) Ledger() []int {
	if c.ledger == nil {
		c.ledger = make([]int, c.p)
	}
	for i := range c.ledger {
		c.ledger[i] = 0
	}
	return c.ledger
}

// Recent returns the normalized stats of up to the last 64 committed steps,
// oldest first. The ring is always on (histogram snapshots excluded), so a
// machine can be inspected after the fact without configuring a trace.
func (c *Core[S]) Recent() []StepStats {
	start := 0
	if c.ringN > ringCap {
		start = c.ringN - ringCap
	}
	out := make([]StepStats, 0, c.ringN-start)
	for i := start; i < c.ringN; i++ {
		out = append(out, c.ring[i%ringCap])
	}
	return out
}

// Step drives one superstep: body runs once per processor, in ascending id
// order on the calling goroutine (reset the processor's state and execute
// its program, so a panicking program surfaces directly to the caller),
// then merge — the model-specific strategy — validates schedules, routes
// traffic, and prices the step, returning the machine's native Stats
// together with the normalized StepStats view. Core commits the result:
// clock, counters, trace, ring, observer.
func (c *Core[S]) Step(body func(i int), merge func() (S, StepStats)) S {
	for i := 0; i < c.p; i++ {
		body(i)
	}
	st, view := merge()
	view.Machine = c.label
	view.Index = c.steps
	c.time += view.Cost
	c.steps++
	c.last = st
	if c.keep {
		c.trace = append(c.trace, st)
	}
	ringView := view
	ringView.Hist = nil // ring entries outlive the recycled histogram
	c.ring[c.ringN%ringCap] = ringView
	c.ringN++
	countStep(view)
	if c.obs != nil {
		c.obs.OnStep(view)
	}
	return st
}

// ResetClock clears time, step count, last stats, trace, and the recent
// ring. Scratch buffers and the observer are preserved, matching the
// machines' Reset semantics (processor RNG state lives in the machines).
func (c *Core[S]) ResetClock() {
	var zero S
	c.time = 0
	c.steps = 0
	c.last = zero
	c.trace = nil
	c.ringN = 0
}
