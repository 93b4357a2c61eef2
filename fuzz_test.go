// Native fuzz targets for the core invariants. Under plain `go test` the
// seed corpus runs as regular tests; `go test -fuzz=FuzzX` explores further.
package parbw_test

import (
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/problems"
	"parbw/internal/sched"
	"parbw/internal/xrand"
)

// FuzzUnbalancedSend: any workload shape must deliver every message exactly
// once, with the result accounting consistent.
func FuzzUnbalancedSend(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(3), false)
	f.Add(uint64(7), uint16(2000), uint8(1), true)
	f.Add(uint64(42), uint16(0), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed uint64, nMsgs uint16, mmRaw uint8, consecutive bool) {
		p := 32
		mm := 1 << (mmRaw % 6) // 1..32
		rng := xrand.New(seed)
		plan := sched.ZipfPlan(rng, p, int(nMsgs)%3000, 1.0)
		m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, 2), Seed: seed})
		var r sched.Result
		if consecutive {
			r = sched.UnbalancedConsecutiveSend(m, plan, sched.Options{Eps: 0.25})
		} else {
			r = sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
		}
		want := len(plan.Sends) // unit messages
		got := 0
		for i := 0; i < p; i++ {
			for _, msg := range m.Inbox(i) {
				got += msg.Flits()
			}
		}
		if got != want || r.N != want {
			t.Fatalf("delivered %d, result %d, want %d", got, r.N, want)
		}
		if r.Time < r.Send.Cost {
			t.Fatalf("total time %v below send cost %v", r.Time, r.Send.Cost)
		}
	})
}

// FuzzColumnsort: the distributed sort must produce the sorted multiset for
// any power-of-two shape and any keys.
func FuzzColumnsort(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3))
	f.Add(uint64(9), uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, nExp, qExp uint8) {
		n := 1 << (3 + nExp%7) // 8..512
		q := 1 << (qExp % 5)   // 1..16
		if q > n {
			q = n
		}
		p := 16
		if q > p {
			p = q
		}
		rng := xrand.New(seed)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Uint64()%2048) - 1024
		}
		m := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(4, 2), Seed: seed})
		got := problems.ColumnsortBSP(m, keys, q)
		if !problems.IsSorted(got) {
			t.Fatalf("n=%d q=%d: not sorted", n, q)
		}
		// Multiset equality via counting.
		counts := map[int64]int{}
		for _, k := range keys {
			counts[k]++
		}
		for _, k := range got {
			counts[k]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("key %d count off by %d", k, c)
			}
		}
	})
}

// FuzzListRank: contraction ranking matches the sequential reference on any
// random list.
func FuzzListRank(f *testing.F) {
	f.Add(uint64(3), uint8(50))
	f.Add(uint64(11), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		n := 1 + int(nRaw)%120
		rng := xrand.New(seed)
		list := problems.RandomList(rng, n)
		want := list.SequentialRanks()
		m := bsp.New(bsp.Config{P: n, Cost: model.BSPmLinear(4, 2), Seed: seed})
		got := problems.ListRankContractBSP(m, list)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}
