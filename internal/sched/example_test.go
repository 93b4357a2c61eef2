package sched_test

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
	"parbw/internal/work"
)

// ExampleUnbalancedSend shows the core workflow: build a globally-limited
// machine, describe each processor's outgoing messages, and let
// Unbalanced-Send schedule them under the aggregate bandwidth limit.
func ExampleUnbalancedSend() {
	const p, m, l = 8, 2, 1
	machine := bsp.New(bsp.Config{P: p, Cost: model.BSPm(m, l), Seed: 1})

	// Processor 0 holds 12 messages; everyone else holds one: a skewed
	// h-relation.
	plan := &work.Step{}
	for k := 0; k < 12; k++ {
		plan.Sends = append(plan.Sends, work.Send{Proc: 0, Dst: 1 + k%(p-1)})
	}
	for i := 1; i < p; i++ {
		plan.Sends = append(plan.Sends, work.Send{Proc: i, Dst: 0})
	}

	res := sched.UnbalancedSend(machine, plan, sched.Options{Eps: 0.25, KnownN: 19})
	delivered := 0
	for i := 0; i < p; i++ {
		delivered += len(machine.Inbox(i))
	}
	fmt.Printf("n=%d x̄=%d delivered=%d\n", res.N, res.XBar, delivered)
	// Output: n=19 x̄=12 delivered=19
}

// ExampleWithOverhead shows LOGP-style startup costs: every message grows
// by o flits, and the schedule accounts for them.
func ExampleWithOverhead() {
	plan := &work.Step{Sends: []work.Send{{Dst: 1}, {Dst: 1, Len: 3}}}
	m := func() *bsp.Machine { return bsp.New(bsp.Config{P: 2, Cost: model.BSPm(1, 1), Seed: 1}) }
	n0 := sched.NaiveSend(m(), plan).N
	n1 := sched.NaiveSend(m(), sched.WithOverhead(plan, 2)).N
	fmt.Println(n0, "->", n1)
	// Output: 4 -> 8
}
