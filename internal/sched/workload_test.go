package sched

import (
	"testing"
	"testing/quick"

	"parbw/internal/work"
	"parbw/internal/xrand"
)

// validPlan reports whether a generated plan passes work.CheckSends and
// stores its sends in processor order, as every generator promises.
func validPlan(plan Plan, p int) bool {
	for i := 1; i < len(plan.Sends); i++ {
		if plan.Sends[i].Proc < plan.Sends[i-1].Proc {
			return false
		}
	}
	return work.CheckSends(p, plan.Sends) == nil
}

func TestUniformPlanShape(t *testing.T) {
	rng := xrand.New(1)
	p, per := 16, 7
	plan := UniformPlan(rng, p, per)
	if !validPlan(plan, p) {
		t.Fatal("invalid plan")
	}
	x, n, _ := tally(plan, p)
	if n != p*per {
		t.Fatalf("n = %d, want %d", n, p*per)
	}
	for i, v := range x {
		if v != per {
			t.Fatalf("x[%d] = %d, want %d", i, v, per)
		}
	}
}

func TestPointPlanShape(t *testing.T) {
	plan := PointPlan(16, 100)
	if !validPlan(plan, 16) {
		t.Fatal("invalid plan")
	}
	x, n, _ := tally(plan, 16)
	if n != 100 || x[0] != 100 {
		t.Fatalf("point plan x=%v n=%d", x, n)
	}
	for _, s := range plan.Sends {
		if s.Proc != 0 || s.Dst == 0 {
			t.Fatal("point plan sends from another processor or to itself")
		}
	}
	// Single-processor degenerate case must not panic.
	p1 := PointPlan(1, 3)
	if len(p1.Sends) != 3 {
		t.Fatal("p=1 point plan wrong")
	}
}

func TestZipfPlanSkew(t *testing.T) {
	rng := xrand.New(2)
	p, n := 32, 3200
	plan := ZipfPlan(rng, p, n, 1.5)
	if !validPlan(plan, p) {
		t.Fatal("invalid plan")
	}
	x, total, _ := tally(plan, p)
	if total != n {
		t.Fatalf("total = %d", total)
	}
	max := 0
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	if max < 3*n/p {
		t.Fatalf("zipf 1.5 not skewed: max %d vs mean %d", max, n/p)
	}
}

func TestHalfHalfPlanShape(t *testing.T) {
	rng := xrand.New(3)
	p := 16
	plan := HalfHalfPlan(rng, p, 10, 2)
	x, _, _ := tally(plan, p)
	for i := 0; i < p/2; i++ {
		if x[i] != 10 {
			t.Fatalf("heavy half x[%d] = %d", i, x[i])
		}
	}
	for i := p / 2; i < p; i++ {
		if x[i] != 2 {
			t.Fatalf("light half x[%d] = %d", i, x[i])
		}
	}
}

func TestPermutationPlanIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := 2 + int(seed%30)
		plan := PermutationPlan(rng, p)
		_, n, y := tally(plan, p)
		if n != p {
			return false
		}
		for _, v := range y {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalExchangePlanShape(t *testing.T) {
	p, fl := 8, 3
	plan := TotalExchangePlan(p, fl)
	x, n, y := tally(plan, p)
	if n != p*(p-1)*fl {
		t.Fatalf("n = %d", n)
	}
	for i := range x {
		if x[i] != (p-1)*fl || y[i] != (p-1)*fl {
			t.Fatalf("not balanced at %d: x=%d y=%d", i, x[i], y[i])
		}
	}
	// No self-messages.
	for _, s := range plan.Sends {
		if s.Dst == s.Proc {
			t.Fatal("self message in total exchange")
		}
	}
}

func TestUnbalancedExchangePlanBounds(t *testing.T) {
	rng := xrand.New(4)
	p, maxLen := 12, 5
	plan := UnbalancedExchangePlan(rng, p, maxLen)
	if !validPlan(plan, p) {
		t.Fatal("invalid plan")
	}
	for _, s := range plan.Sends {
		if s.Len < 1 || s.Len > maxLen {
			t.Fatalf("length %d outside [1, %d]", s.Len, maxLen)
		}
	}
}

func TestSkewedExchangePlanShape(t *testing.T) {
	p := 16
	plan := SkewedExchangePlan(p, 2, 8, 1)
	x, _, _ := tally(plan, p)
	if x[0] != (p-1)*8 || x[1] != (p-1)*8 {
		t.Fatalf("heavy senders wrong: %v", x[:2])
	}
	if x[2] != p-1 {
		t.Fatalf("light sender wrong: %d", x[2])
	}
	// lightLen = 0 drops light senders entirely.
	plan0 := SkewedExchangePlan(p, 2, 8, 0)
	x0, _, _ := tally(plan0, p)
	if x0[5] != 0 {
		t.Fatal("lightLen=0 still sends")
	}
}

// Every generator stores its sends in processor order, so compile's index
// walks them sequentially.
func TestGeneratorsEmitProcessorOrder(t *testing.T) {
	rng := xrand.New(5)
	p := 24
	plans := map[string]Plan{
		"uniform":    UniformPlan(rng, p, 3),
		"point":      PointPlan(p, 50),
		"zipf":       ZipfPlan(rng, p, 500, 1.2),
		"halfhalf":   HalfHalfPlan(rng, p, 5, 1),
		"perm":       PermutationPlan(rng, p),
		"total":      TotalExchangePlan(p, 2),
		"unbalanced": UnbalancedExchangePlan(rng, p, 3),
		"skewed":     SkewedExchangePlan(p, 3, 4, 1),
	}
	for name, plan := range plans {
		if !validPlan(plan, p) {
			t.Errorf("%s: sends invalid or not in processor order", name)
		}
	}
}
