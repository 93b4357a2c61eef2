package sched

import (
	"testing"

	"parbw/internal/work"
	"parbw/internal/xrand"
)

// planIR lifts a plan into a single-superstep IR, each processor's messages
// packed densely from slot 0 in row order, payloads included.
func planIR(plan Plan, m, l int) *work.IR {
	b := work.NewBuilder(len(plan), m, l)
	b.Step()
	for proc, msgs := range plan {
		for _, msg := range msgs {
			b.SendMsg(proc, work.Send{Dst: int(msg.Dst), Len: int(msg.Len), Tag: msg.Tag, A: msg.A, B: msg.B, C: msg.C})
		}
	}
	return b.IR()
}

// The contract of the IR entry points: over the same traffic on
// identically-seeded machines, each produces a Result identical to its
// Plan counterpart — same RNG draw order, same costs.
func TestIREntryPointsMatchPlanEntryPoints(t *testing.T) {
	rng := xrand.New(3)
	p, mm, l := 16, 4, 2
	plan := ZipfPlan(rng, p, 200, 1.2)
	ir := planIR(plan, mm, l)
	type pair struct {
		name     string
		fromPlan func() Result
		fromIR   func() Result
	}
	const seed = 11
	opt := Options{Eps: 0.5}
	pairs := []pair{
		{"UnbalancedSend",
			func() Result { return UnbalancedSend(machine(p, mm, l, seed), plan, opt) },
			func() Result { return UnbalancedSendIR(machine(p, mm, l, seed), ir, 0, opt) }},
		{"NaiveSend",
			func() Result { return NaiveSend(machine(p, mm, l, seed), plan) },
			func() Result { return NaiveSendIR(machine(p, mm, l, seed), ir, 0) }},
	}
	for _, pr := range pairs {
		a, b := pr.fromPlan(), pr.fromIR()
		if a != b {
			t.Errorf("%s: Plan result %+v != IR result %+v", pr.name, a, b)
		}
	}
}

func TestCompileIRMatchesCompile(t *testing.T) {
	p, mm, l := 8, 2, 1
	plan := SkewedExchangePlan(p, 2, 4, 1)
	ir := planIR(plan, mm, l)
	m1 := machine(p, mm, l, 1)
	a := compile(m1, plan)
	b := compileIR(m1, ir, 0)
	if a.n != b.n {
		t.Fatalf("n: %d != %d", a.n, b.n)
	}
	for i := 0; i <= p; i++ {
		if a.row[i] != b.row[i] {
			t.Fatalf("row[%d]: %d != %d", i, a.row[i], b.row[i])
		}
	}
	for i := 0; i < p; i++ {
		if a.x[i] != b.x[i] || a.y[i] != b.y[i] {
			t.Fatalf("x/y[%d]: %d/%d != %d/%d", i, a.x[i], a.y[i], b.x[i], b.y[i])
		}
	}
	for k := range a.msgs {
		if a.msgs[k] != b.msgs[k] || a.off[k] != b.off[k] {
			t.Fatalf("msg %d: %+v off %d != %+v off %d", k, a.msgs[k], a.off[k], b.msgs[k], b.off[k])
		}
	}
	// planIR packs densely, so the IR slots must equal the row offsets.
	for k := range b.slots {
		if b.slots[k] != b.off[k] {
			t.Fatalf("slot %d: %d != off %d", k, b.slots[k], b.off[k])
		}
	}
}

func TestPlanIRRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	p := 8
	plan := UnbalancedExchangePlan(rng, p, 6)
	ir := planIR(plan, 2, 1)
	if err := ir.Validate(); err != nil {
		t.Fatalf("dense plan lift produced invalid IR: %v", err)
	}
	back := Plan(ir.Rows(0))
	if len(back) != len(plan) {
		t.Fatalf("procs: %d != %d", len(back), len(plan))
	}
	for i := range plan {
		if len(back[i]) != len(plan[i]) {
			t.Fatalf("proc %d: %d msgs != %d", i, len(back[i]), len(plan[i]))
		}
		for j := range plan[i] {
			if back[i][j] != plan[i][j] {
				t.Fatalf("proc %d msg %d: %+v != %+v", i, j, back[i][j], plan[i][j])
			}
		}
	}
}

func TestReplayDeliversAndCharges(t *testing.T) {
	b := work.NewBuilder(4, 2, 1)
	b.Step()
	b.Work(0, 10)
	b.Work(3, 4)
	b.Send(0, 1, 2)
	b.Send(2, 3, 1)
	b.Step()
	b.SendAt(1, 7, 0, 3)
	ir := b.MustIR()

	m := machine(4, 2, 1, 1)
	flits := 0
	stats := ReplayAll(m, ir)
	if len(stats) != 2 {
		t.Fatalf("stats = %d supersteps", len(stats))
	}
	// Inboxes hold only the latest superstep's deliveries, so replay again
	// step by step to tally all of them.
	m2 := machine(4, 2, 1, 1)
	for step := range ir.Steps {
		Replay(m2, ir, step)
		f, _ := deliveredFlits(m2)
		flits += f
	}
	if flits != ir.TotalFlits {
		t.Fatalf("delivered %d flits, want %d", flits, ir.TotalFlits)
	}
	// The Work vector must be charged: the same IR stripped of work must
	// cost strictly less in superstep 0.
	bare := ir.Clone()
	bare.Steps[0].Work = nil
	bareStats := ReplayAll(machine(4, 2, 1, 1), bare)
	if stats[0].Cost <= bareStats[0].Cost {
		t.Fatalf("compute work not charged: with work %v, without %v", stats[0].Cost, bareStats[0].Cost)
	}
}

func TestReplayPanicsOnInvalidIR(t *testing.T) {
	ir := &work.IR{Version: work.Version, P: 2, M: 1, L: 1,
		Steps: []work.Step{{Sends: []work.Send{{Proc: 0, Slot: 0, Dst: 9}}}}}
	defer func() {
		if recover() == nil {
			t.Fatal("Replay accepted an invalid IR")
		}
	}()
	Replay(machine(2, 1, 1, 1), ir, 0)
}

func TestCompileIRPanicsOnMachineMismatch(t *testing.T) {
	ir := &work.IR{Version: work.Version, P: 4, M: 2, L: 1, Steps: []work.Step{{}}}
	defer func() {
		if recover() == nil {
			t.Fatal("compileIR accepted a machine-shape mismatch")
		}
	}()
	compileIR(machine(8, 2, 1, 1), ir, 0)
}
