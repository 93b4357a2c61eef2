// Quickstart: build a globally-limited BSP(m) machine, give its processors
// a skewed set of messages, and compare three ways of injecting them into a
// network that sustains m messages per step:
//
//   - NaiveSend: everyone starts at step 0 (what a schedule-oblivious
//     program does) — catastrophic under the exponential overload penalty;
//   - UnbalancedSend: the paper's randomized schedule (Theorem 6.2),
//     within (1+ε) of optimal without knowing the skew in advance;
//   - OfflineSend: the optimal offline schedule, as the yardstick.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
	"parbw/internal/xrand"
)

func main() {
	const (
		p    = 128 // processors
		m    = 16  // aggregate bandwidth: the network moves m messages/step
		l    = 4   // latency / periodicity
		seed = 1
	)

	// A Zipf-skewed workload: a few processors hold most of the messages,
	// the regime where globally-limited models beat locally-limited ones.
	rng := xrand.New(seed)
	plan := sched.ZipfPlan(rng, p, 4096, 1.2)

	machine := func() *bsp.Machine {
		return bsp.New(bsp.Config{P: p, Cost: model.BSPm(m, l), Seed: seed})
	}

	naive := sched.NaiveSend(machine(), plan)
	fmt.Printf("workload: n=%d messages over p=%d processors, busiest sender x̄=%d\n\n", naive.N, p, naive.XBar)
	fmt.Printf("naive (all at step 0):   time %12.1f  max step load %4d (m=%d)\n",
		naive.Time, naive.Send.MaxSlot, m)

	unb := sched.UnbalancedSend(machine(), plan, sched.Options{Eps: 0.25})
	fmt.Printf("Unbalanced-Send:         time %12.1f  max step load %4d  (τ=%.0f)\n",
		unb.Time, unb.Send.MaxSlot, unb.Tau)

	off := sched.OfflineSend(machine(), plan)
	fmt.Printf("offline optimal:         time %12.1f  max step load %4d\n\n",
		off.Time, off.Send.MaxSlot)

	opt := unb.OptimalOffline(m, l)
	fmt.Printf("offline lower bound max(n/m, x̄, ȳ, L) = %.0f\n", opt)
	fmt.Printf("Unbalanced-Send is within %.2fx of optimal; naive is %.1fx worse than scheduled.\n",
		unb.Time/opt, naive.Time/unb.Time)

	// The same traffic on a locally-limited BSP(g) with equal aggregate
	// bandwidth (g = p/m) pays the Proposition 6.1 price g·(x̄+ȳ).
	g := p / m
	lg := bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: seed})
	lgr := sched.NaiveSend(lg, plan)
	fmt.Printf("\nBSP(g) with g=p/m=%d:     time %12.1f — the Θ(g) separation of the paper.\n",
		g, lgr.Time)
}
