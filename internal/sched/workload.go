package sched

import (
	"parbw/internal/work"
	"parbw/internal/xrand"
)

// Workload generators produce the skewed h-relations the paper motivates:
// "processors can have varying amounts of messages to send due to skew in
// the inputs, skew in the fraction of data that is already local, skew in
// the amount of new values produced, skew in the number of new tasks
// spawned" (Section 6). All generators draw destinations uniformly unless
// stated otherwise, are deterministic given the source, and store their
// sends in processor order, so compile reads them sequentially.

// UniformPlan gives every processor perMsgs unit messages with uniformly
// random destinations — the balanced case where locally- and
// globally-limited models coincide.
func UniformPlan(rng *xrand.Source, p, perMsgs int) Plan {
	sends := make([]work.Send, 0, p*perMsgs)
	for i := 0; i < p; i++ {
		for j := 0; j < perMsgs; j++ {
			sends = append(sends, work.Send{Proc: i, Dst: rng.Intn(p), A: int64(i)})
		}
	}
	return &work.Step{Sends: sends}
}

// PointPlan concentrates all n messages at a single sender (processor 0),
// with distinct round-robin destinations — the one-to-all-style extreme
// where the locally-limited lower bound g·h is worst relative to the
// globally-limited max(n/m, h).
func PointPlan(p, n int) Plan {
	sends := make([]work.Send, n)
	for j := range sends {
		d := 0
		if p > 1 {
			d = 1 + j%(p-1)
		}
		sends[j] = work.Send{Dst: d, A: int64(j)}
	}
	return &work.Step{Sends: sends}
}

// ZipfPlan draws each of n messages' senders from a Zipf distribution with
// the given skew exponent, modeling input skew; destinations are uniform.
// Message k carries payload A = k. The (sender, destination) draws
// interleave, message by message; a stable counting pass then stores the
// sends in processor order.
func ZipfPlan(rng *xrand.Source, p, n int, skew float64) Plan {
	z := xrand.NewZipf(rng, p, skew)
	src := make([]int32, n)
	dst := make([]int32, n)
	at := make([]int, p+1) // at[i+1] counts processor i's messages
	for k := range src {
		s := z.Draw()
		src[k], dst[k] = int32(s), int32(rng.Intn(p))
		at[s+1]++
	}
	for i := 1; i <= p; i++ {
		at[i] += at[i-1]
	}
	sends := make([]work.Send, n)
	for k, s := range src {
		sends[at[s]] = work.Send{Proc: int(s), Dst: int(dst[k]), A: int64(k)}
		at[s]++
	}
	return &work.Step{Sends: sends}
}

// HalfHalfPlan gives the first half of the processors heavy flows of
// heavyPer messages each and the rest lightPer each — the "intermediate
// join result" skew shape.
func HalfHalfPlan(rng *xrand.Source, p, heavyPer, lightPer int) Plan {
	sends := make([]work.Send, 0, p/2*heavyPer+(p-p/2)*lightPer)
	for i := 0; i < p; i++ {
		per := lightPer
		if i < p/2 {
			per = heavyPer
		}
		for j := 0; j < per; j++ {
			sends = append(sends, work.Send{Proc: i, Dst: rng.Intn(p), A: int64(i)})
		}
	}
	return &work.Step{Sends: sends}
}

// PermutationPlan sends exactly one unit message per processor along a
// random permutation — a perfectly balanced 1-relation.
func PermutationPlan(rng *xrand.Source, p int) Plan {
	perm := rng.Perm(p)
	sends := make([]work.Send, p)
	for i := range sends {
		sends[i] = work.Send{Proc: i, Dst: perm[i], A: int64(i)}
	}
	return &work.Step{Sends: sends}
}

// TotalExchangePlan is the balanced total exchange (all-to-all personalized
// communication): every processor sends one message of length flitsPer to
// every other processor.
func TotalExchangePlan(p, flitsPer int) Plan {
	sends := make([]work.Send, 0, p*(p-1))
	for i := 0; i < p; i++ {
		for d := 0; d < p; d++ {
			if d != i {
				sends = append(sends, work.Send{Proc: i, Dst: d, Len: flitsPer, A: int64(i)})
			}
		}
	}
	return &work.Step{Sends: sends}
}

// UnbalancedExchangePlan is the unbalanced total exchange ("chatting" of
// Bhatt et al.): processor i sends to processor j a message of length
// drawn uniformly from [0, maxLen] (length 0 means no message).
func UnbalancedExchangePlan(rng *xrand.Source, p, maxLen int) Plan {
	var sends []work.Send
	for i := 0; i < p; i++ {
		for d := 0; d < p; d++ {
			if d == i {
				continue
			}
			if l := rng.Intn(maxLen + 1); l > 0 {
				sends = append(sends, work.Send{Proc: i, Dst: d, Len: l, A: int64(i)})
			}
		}
	}
	return &work.Step{Sends: sends}
}

// SkewedExchangePlan is an unbalanced total exchange with per-sender skew:
// the first heavy senders send a message of length heavyLen to every other
// processor, the rest send length lightLen (0 = nothing). This is the
// "chatting" shape where a few processors dominate the traffic and the
// locally-limited g·h bound is Θ(g) worse than the globally-limited
// max(n/m, h).
func SkewedExchangePlan(p, heavy, heavyLen, lightLen int) Plan {
	var sends []work.Send
	for i := 0; i < p; i++ {
		l := lightLen
		if i < heavy {
			l = heavyLen
		}
		if l <= 0 {
			continue
		}
		for d := 0; d < p; d++ {
			if d != i {
				sends = append(sends, work.Send{Proc: i, Dst: d, Len: l, A: int64(i)})
			}
		}
	}
	return &work.Step{Sends: sends}
}
