// Total exchange (all-to-all personalized communication), the primitive
// behind matrix transposition, 2-D FFT and HPF array remapping (paper,
// Section 3). This example transposes a matrix distributed row-wise over the
// processors by exchanging blocks all-to-all, then repeats the experiment
// with an *unbalanced* exchange ("chatting") in which message lengths vary,
// showing where the globally-limited machine pulls ahead.
//
// Run with: go run ./examples/totalexchange
package main

import (
	"fmt"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
)

const (
	p    = 64
	g    = 8
	l    = 4
	seed = 3
)

func machines() (*bsp.Machine, *bsp.Machine) {
	local := bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: seed})
	global := bsp.New(bsp.Config{P: p, Cost: model.BSPm(p/g, l), Seed: seed})
	return local, global
}

func main() {
	// --- Balanced total exchange: an N×N matrix, one row block per
	// processor; transposing exchanges equal-size blocks between every
	// pair. Balanced traffic is where BSP(g) and BSP(m) coincide
	// (h-relation with h = n/p exactly).
	const blockFlits = 4 // flits per (i,j) block
	balanced := sched.TotalExchangePlan(p, blockFlits)
	local, global := machines()
	lr := sched.NaiveSend(local, balanced) // BSP(g) needs no schedule
	gr := sched.UnbalancedSend(global, balanced, sched.Options{Eps: 0.25})
	fmt.Println("balanced total exchange (matrix transpose):")
	fmt.Printf("  BSP(g, g=%d): %8.0f    BSP(m, m=%d): %8.0f   (τ=%.0f)\n",
		g, lr.Time, p/g, gr.Time, gr.Tau)
	fmt.Printf("  balanced traffic: both models cost ~g·h = n/m; separation %.2fx\n\n",
		lr.Time/gr.Time)

	// --- Unbalanced total exchange (the Bhatt et al. "chatting" problem):
	// p/8 chatty processors send long messages to everyone, the rest send
	// a single flit. Now h ≫ n/p and the globally-limited machine wins.
	chatting := sched.SkewedExchangePlan(p, p/8, 16, 1)
	local, global = machines()
	lr = sched.NaiveSend(local, chatting)
	gr = sched.UnbalancedConsecutiveSend(global, chatting, sched.Options{Eps: 0.25})
	n, xbar, ybar := gr.N, gr.XBar, gr.YBar
	fmt.Println("unbalanced total exchange (chatting, p/8 heavy senders):")
	fmt.Printf("  n=%d flits, x̄=%d, ȳ=%d\n", n, xbar, ybar)
	fmt.Printf("  BSP(g): %8.0f  — pays Θ(g(x̄+ȳ)) >= g·max(x̄,ȳ) = %d (Prop 6.1)\n",
		lr.Time, g*maxOf(xbar, ybar))
	fmt.Printf("  BSP(m): %8.0f  — near max(n/m, x̄, ȳ) = %d (Thm 6.3 schedule)\n",
		gr.Time, maxOf(n/(p/g), xbar, ybar))
	fmt.Printf("  separation %.2fx (paper predicts up to Θ(g) = %d under imbalance)\n",
		lr.Time/gr.Time, g)

	// Verify the transpose actually delivered every block.
	delivered := 0
	for i := 0; i < p; i++ {
		for _, msg := range global.Inbox(i) {
			delivered += msg.Flits()
		}
	}
	fmt.Printf("\ndelivered %d of %d flits through the m-limited network\n", delivered, n)
}

func maxOf(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
