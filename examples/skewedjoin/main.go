// Skewed join: the Section 6 motivation "skew in the amount of new values
// produced by the processors (e.g., an intermediate result of a join
// operation)". Each processor holds a partition of two relations R and S
// hashed on the join key; a handful of heavy-hitter keys make a few
// processors produce most of the join output, which must then be
// redistributed (hashed on the output key) for the next operator.
//
// The example measures that redistribution on a BSP(m) machine with the
// exponential overload penalty: naive injection melts down, Unbalanced-Send
// stays within (1+ε) of the offline optimum, and a locally-limited BSP(g)
// with the same aggregate bandwidth is ~g slower because the skew
// concentrates traffic at few senders.
//
// Run with: go run ./examples/skewedjoin
package main

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
	"parbw/internal/work"
	"parbw/internal/xrand"
)

const (
	p    = 128
	m    = 16
	l    = 4
	seed = 7

	rTuples = 8192 // |R|
	sTuples = 8192 // |S|
	keys    = 512  // join-key domain, zipf-distributed
)

func main() {
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng, keys, 1.1)

	// Hash-partition both relations on the join key: key k lives on
	// processor k mod p. Count tuples per key.
	rCount := make([]int, keys)
	sCount := make([]int, keys)
	for i := 0; i < rTuples; i++ {
		rCount[z.Draw()]++
	}
	for i := 0; i < sTuples; i++ {
		sCount[z.Draw()]++
	}

	// The join output for key k has rCount[k]*sCount[k] tuples, produced at
	// processor k mod p, and each tuple is redistributed to a
	// pseudo-random target (hash of the output key).
	plan := &work.Step{}
	x := make([]int, p) // output tuples per processor
	for k := 0; k < keys; k++ {
		owner := k % p
		tuples := rCount[k] * sCount[k]
		// Cap pathological keys so the example stays quick; real systems
		// would spill — the cap keeps x̄ ≫ n/p skew intact.
		if tuples > 4096 {
			tuples = 4096
		}
		for t := 0; t < tuples; t++ {
			dst := int(rng.Uint64() % uint64(p))
			plan.Sends = append(plan.Sends, work.Send{Proc: owner, Dst: dst, A: int64(k)})
			x[owner]++
		}
	}
	n := len(plan.Sends)
	xbar := 0
	busy := 0
	for _, v := range x {
		if v > xbar {
			xbar = v
		}
		if v > 0 {
			busy++
		}
	}
	fmt.Printf("join produced %d output tuples at %d/%d processors; busiest holds %d (%.1f%% of all)\n\n",
		n, busy, p, xbar, 100*float64(xbar)/float64(n))

	mk := func() *bsp.Machine {
		return bsp.New(bsp.Config{P: p, Cost: model.BSPm(m, l), Seed: seed})
	}
	naive := sched.NaiveSend(mk(), plan)
	unb := sched.UnbalancedSend(mk(), plan, sched.Options{Eps: 0.25})
	opt := unb.OptimalOffline(m, l)
	fmt.Printf("redistribution on BSP(m=%d), exponential penalty:\n", m)
	fmt.Printf("  naive:           %14.0f (max step load %d)\n", naive.Time, naive.Send.MaxSlot)
	fmt.Printf("  Unbalanced-Send: %14.0f (within %.2fx of offline optimum %0.f)\n",
		unb.Time, unb.Time/opt, opt)

	g := p / m
	lg := bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: seed})
	lgr := sched.NaiveSend(lg, plan)
	fmt.Printf("  BSP(g=%d):        %14.0f — pays g·(x̄+ȳ); skew costs it %.1fx vs BSP(m)\n",
		g, lgr.Time, lgr.Time/unb.Time)
}
