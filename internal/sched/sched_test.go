package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/work"
	"parbw/internal/xrand"
)

// statCfg gives statistical (w.h.p.) property tests a fixed random source,
// so their small failure probability cannot make the suite flaky.
func statCfg(max int) *quick.Config {
	return &quick.Config{MaxCount: max, Rand: rand.New(rand.NewSource(7))}
}

func machine(p, m, l int, seed uint64) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPm(m, l), Seed: seed})
}

// deliveredFlits counts flits delivered across all inboxes, with a payload
// checksum to confirm delivery of actual message content.
func deliveredFlits(m *bsp.Machine) (flits int, sum int64) {
	for i := 0; i < m.P(); i++ {
		for _, msg := range m.Inbox(i) {
			flits += msg.Flits()
			sum += msg.A
		}
	}
	return flits, sum
}

func planChecksum(plan Plan) (flits int, sum int64) {
	for _, s := range plan.Sends {
		flits += s.Flits()
		sum += s.A
	}
	return flits, sum
}

// rowsPlan builds a plan from per-processor rows of sends, stamping each
// send's Proc with its row.
func rowsPlan(rows ...[]work.Send) Plan {
	plan := &work.Step{}
	for i, row := range rows {
		for _, s := range row {
			s.Proc = i
			plan.Sends = append(plan.Sends, s)
		}
	}
	return plan
}

// tally compiles plan for a p-processor machine and returns its flit
// tallies: per-processor x_i, the total n, and per-destination y_i.
func tally(plan Plan, p int) (x []int, n int, y []int) {
	cp := compile(machine(p, 1, 1, 1), plan)
	return cp.x, cp.n, cp.y
}

type algo struct {
	name string
	run  func(m *bsp.Machine, plan Plan, opt Options) Result
}

var algos = []algo{
	{"UnbalancedSend", UnbalancedSend},
	{"UnbalancedConsecutiveSend", UnbalancedConsecutiveSend},
	{"UnbalancedGranularSend", UnbalancedGranularSend},
	{"NaiveSend", func(m *bsp.Machine, plan Plan, _ Options) Result { return NaiveSend(m, plan) }},
	{"OfflineSend", func(m *bsp.Machine, plan Plan, _ Options) Result { return OfflineSend(m, plan) }},
}

// Every algorithm must deliver every message regardless of skew.
func TestAllAlgorithmsDeliverEverything(t *testing.T) {
	rng := xrand.New(1)
	p := 32
	plans := map[string]Plan{
		"uniform":  UniformPlan(rng, p, 5),
		"point":    PointPlan(p, 300),
		"zipf":     ZipfPlan(rng, p, 400, 1.3),
		"halfhalf": HalfHalfPlan(rng, p, 20, 1),
		"perm":     PermutationPlan(rng, p),
		"exchange": UnbalancedExchangePlan(rng, p, 3),
		"empty":    &work.Step{},
	}
	for _, a := range algos {
		for name, plan := range plans {
			m := machine(p, 8, 4, 99)
			res := a.run(m, plan, Options{})
			wantFlits, wantSum := planChecksum(plan)
			gotFlits, gotSum := deliveredFlits(m)
			if gotFlits != wantFlits || gotSum != wantSum {
				t.Fatalf("%s/%s: delivered %d flits (sum %d), want %d (%d)",
					a.name, name, gotFlits, gotSum, wantFlits, wantSum)
			}
			if res.N != wantFlits {
				t.Fatalf("%s/%s: Result.N = %d, want %d", a.name, name, res.N, wantFlits)
			}
		}
	}
}

// Theorem 6.2 shape: with m not too small, Unbalanced-Send never overloads
// a step and completes within (1+ε)·optimal plus τ.
func TestUnbalancedSendWithinBound(t *testing.T) {
	rng := xrand.New(2)
	p, mm, l := 64, 32, 4
	eps := 0.25
	for trial := 0; trial < 10; trial++ {
		plan := ZipfPlan(rng, p, 4000, 1.1)
		m := machine(p, mm, l, uint64(trial))
		res := UnbalancedSend(m, plan, Options{Eps: eps})
		if res.Send.Overload != 0 {
			t.Fatalf("trial %d: %d overloaded steps (MaxSlot=%d, m=%d)",
				trial, res.Send.Overload, res.Send.MaxSlot, mm)
		}
		opt := res.OptimalOffline(mm, l)
		bound := (1+eps)*opt + res.Tau + float64(res.XBar)
		if res.Time > bound+1 {
			t.Fatalf("trial %d: time %v exceeds bound %v (opt %v, τ %v)",
				trial, res.Time, bound, opt, res.Tau)
		}
	}
}

// The sending superstep must respect the per-step limit w.h.p.: MaxSlot <= m.
func TestUnbalancedSendRespectsAggregateLimit(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p, mm := 32, 16
		plan := ZipfPlan(rng, p, 2000, 1.0)
		m := machine(p, mm, 2, seed)
		res := UnbalancedSend(m, plan, Options{Eps: 0.5})
		return res.Send.MaxSlot <= mm+mm/2
	}
	if err := quick.Check(f, statCfg(30)); err != nil {
		t.Fatal(err)
	}
}

// Point imbalance: one sender with n messages. h = n dominates; time must be
// ~n + τ, not (1+ε)n/m-limited (the sender itself is the bottleneck).
func TestPointImbalance(t *testing.T) {
	p, mm, l := 32, 8, 2
	n := 256
	plan := PointPlan(p, n)
	m := machine(p, mm, l, 5)
	res := UnbalancedSend(m, plan, Options{})
	if res.XBar != n {
		t.Fatalf("XBar = %d, want %d", res.XBar, n)
	}
	// One sender can inject only one flit per step: cost >= n.
	if res.Send.Cost < float64(n) {
		t.Fatalf("send cost %v < h = %d", res.Send.Cost, n)
	}
	if res.Send.Cost > float64(n)+float64(res.Period) {
		t.Fatalf("send cost %v far above h = %d (period %d)", res.Send.Cost, n, res.Period)
	}
}

// Ablation: under the exponential penalty, NaiveSend on a skewed plan is
// catastrophically slower than UnbalancedSend; under the linear penalty it
// is only modestly slower.
func TestNaiveVsScheduledPenaltyRegimes(t *testing.T) {
	rng := xrand.New(3)
	p, mm, l := 64, 8, 2
	plan := UniformPlan(rng, p, 50) // all 64 procs inject simultaneously

	exp := machine(p, mm, l, 7)
	naive := NaiveSend(exp, plan)
	sched := UnbalancedSend(machine(p, mm, l, 7), plan, Options{})
	if naive.Time < 100*sched.Time {
		t.Fatalf("exponential penalty: naive %v not ≫ scheduled %v", naive.Time, sched.Time)
	}

	lin := bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(mm, l), Seed: 7})
	naiveLin := NaiveSend(lin, plan)
	if naiveLin.Time > 3*sched.Time {
		t.Fatalf("linear penalty: naive %v unexpectedly ≫ scheduled %v", naiveLin.Time, sched.Time)
	}
}

// OfflineSend is deterministic, never overloads, and matches the offline
// optimum up to rounding for unit messages.
func TestOfflineSendOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p, mm := 16, 4
		plan := ZipfPlan(rng, p, 500, 0.8)
		m := machine(p, mm, 1, seed)
		res := OfflineSend(m, plan)
		if res.Send.MaxSlot > mm {
			return false
		}
		opt := res.OptimalOffline(mm, 1)
		// Send cost is max(h, c_m, L); with no overload c_m = steps used.
		return res.Send.Cost <= opt+float64(res.YBar)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Long messages: flits must land in consecutive steps of the superstep, and
// the consecutive variant pays at most an extra x̄'.
func TestConsecutiveSendLongMessages(t *testing.T) {
	rng := xrand.New(4)
	p, mm, l := 32, 16, 2
	plan := UnbalancedExchangePlan(rng, p, 6)
	m := machine(p, mm, l, 11)
	res := UnbalancedConsecutiveSend(m, plan, Options{})
	wantFlits, wantSum := planChecksum(plan)
	gotFlits, gotSum := deliveredFlits(m)
	if gotFlits != wantFlits || gotSum != wantSum {
		t.Fatalf("delivery mismatch: %d/%d vs %d/%d", gotFlits, gotSum, wantFlits, wantSum)
	}
	xbarPrime := res.XBar // all senders here are non-overloaded
	bound := float64(res.Period+xbarPrime) + res.Tau + 1
	if res.Time > bound {
		t.Fatalf("time %v exceeds (1+ε)n/m + x̄' = %v", res.Time, bound)
	}
}

// Granular send must keep the MaxSlot below m w.h.p. and complete within
// c·n/m (+ x̄ when a sender dominates).
func TestGranularSendBound(t *testing.T) {
	rng := xrand.New(6)
	p, mm := 64, 16
	plan := ZipfPlan(rng, p, 3000, 0.9)
	m := machine(p, mm, 2, 13)
	res := UnbalancedGranularSend(m, plan, Options{GranularC: 4})
	if res.Send.Overload != 0 {
		t.Fatalf("granular send overloaded: MaxSlot=%d m=%d", res.Send.MaxSlot, mm)
	}
	bound := 4*float64(res.N)/float64(mm) + float64(res.XBar) + res.Tau + 1
	if res.Time > bound {
		t.Fatalf("time %v exceeds c·n/m bound %v", res.Time, bound)
	}
}

// KnownN skips the τ protocol entirely.
func TestKnownNSkipsTau(t *testing.T) {
	rng := xrand.New(8)
	p := 16
	plan := UniformPlan(rng, p, 4)
	_, n, _ := tally(plan, p)
	m := machine(p, 8, 2, 17)
	res := UnbalancedSend(m, plan, Options{KnownN: n})
	if res.Tau != 0 {
		t.Fatalf("τ = %v with KnownN", res.Tau)
	}
	if m.Supersteps() != 1 {
		t.Fatalf("supersteps = %d, want 1", m.Supersteps())
	}
}

func TestTauChargedWhenUnknown(t *testing.T) {
	rng := xrand.New(9)
	p := 16
	plan := UniformPlan(rng, p, 4)
	m := machine(p, 8, 2, 18)
	res := UnbalancedSend(m, plan, Options{})
	if res.Tau <= 0 {
		t.Fatal("τ not charged when n unknown")
	}
	if res.Time <= res.Tau {
		t.Fatal("total time does not include the send")
	}
}

func TestWithOverhead(t *testing.T) {
	rng := xrand.New(10)
	p := 8
	plan := PermutationPlan(rng, p)
	o := 3
	over := WithOverhead(plan, o)
	x0, n0, _ := tally(plan, p)
	x1, n1, _ := tally(over, p)
	if n1 != n0+o*p {
		t.Fatalf("overhead total = %d, want %d", n1, n0+o*p)
	}
	for i := range x0 {
		if x1[i] != x0[i]+o {
			t.Fatalf("proc %d overhead flits = %d, want %d", i, x1[i], x0[i]+o)
		}
	}
	// Original plan untouched.
	if plan.Sends[0].Flits() != 1 {
		t.Fatal("WithOverhead mutated the original plan")
	}
}

func TestWithOverheadNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative overhead accepted")
		}
	}()
	WithOverhead(&work.Step{}, -1)
}

// compile's flit tallies and processor-order index, over a plan whose
// sends interleave processors: each row keeps its stored order and its
// cumulative flit offsets.
func TestPlanFlits(t *testing.T) {
	plan := &work.Step{Sends: []work.Send{
		{Proc: 1, Dst: 0, A: 10},
		{Proc: 0, Dst: 1, Len: 3, A: 20},
		{Proc: 0, Dst: 2, A: 30},
	}}
	cp := compile(machine(3, 1, 1, 1), plan)
	if cp.n != 5 {
		t.Fatalf("n = %d, want 5", cp.n)
	}
	if x := cp.x; x[0] != 4 || x[1] != 1 || x[2] != 0 {
		t.Fatalf("x = %v", x)
	}
	if y := cp.y; y[0] != 1 || y[1] != 3 || y[2] != 1 {
		t.Fatalf("y = %v", y)
	}
	if want := []int{0, 2, 3, 3}; !slices.Equal(cp.row, want) {
		t.Fatalf("row = %v, want %v", cp.row, want)
	}
	if want := []int32{1, 2, 0}; !slices.Equal(cp.idx, want) {
		t.Fatalf("idx = %v, want %v", cp.idx, want)
	}
	if want := []int{0, 3, 0}; !slices.Equal(cp.off, want) {
		t.Fatalf("off = %v, want %v", cp.off, want)
	}
	if &cp.sends[0] != &plan.Sends[0] {
		t.Fatal("compile copied the plan's sends")
	}
}

func TestResultOptimalOffline(t *testing.T) {
	r := Result{N: 100, XBar: 7, YBar: 30}
	if got := r.OptimalOffline(10, 2); got != 30 {
		t.Fatalf("opt = %v, want 30 (ȳ dominates)", got)
	}
	if got := r.OptimalOffline(2, 2); got != 50 {
		t.Fatalf("opt = %v, want 50 (n/m dominates)", got)
	}
	r2 := Result{N: 1, XBar: 1, YBar: 1}
	if got := r2.OptimalOffline(4, 9); got != 9 {
		t.Fatalf("opt = %v, want 9 (L dominates)", got)
	}
}

func TestBadPlanPanics(t *testing.T) {
	m := machine(4, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dst accepted")
		}
	}()
	UnbalancedSend(m, rowsPlan([]work.Send{{Dst: 9}}), Options{})
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	m := machine(4, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("plan for a larger machine accepted")
		}
	}()
	NaiveSend(m, rowsPlan(nil, nil, nil, nil, []work.Send{{Dst: 0}}))
}

// Self-scheduling cost metric: the same plan on the self-scheduling BSP(m)
// costs max(w, h, n/m, L), and UnbalancedSend realizes that within (1+ε)+τ
// on the real BSP(m) — the Section 2 claim that the self-scheduling model
// can replace the BSP(m).
func TestSelfSchedulingEmulation(t *testing.T) {
	rng := xrand.New(12)
	p, mm, l := 64, 16, 2
	plan := ZipfPlan(rng, p, 3000, 1.0)

	ss := bsp.New(bsp.Config{P: p, Cost: model.BSPSelfSched(mm, l), Seed: 3})
	ssRes := NaiveSend(ss, plan) // injection times ignored by the metric
	real := machine(p, mm, l, 3)
	realRes := UnbalancedSend(real, plan, Options{Eps: 0.25})

	if realRes.Send.Overload != 0 {
		t.Fatal("scheduled send overloaded")
	}
	limit := (1+0.25)*ssRes.Time + realRes.Tau + float64(realRes.XBar) + 1
	if realRes.Time > limit {
		t.Fatalf("BSP(m) time %v exceeds (1+ε)·self-sched %v + τ", realRes.Time, limit)
	}
}

// Determinism: identical seeds give identical schedules and costs.
func TestSchedulingDeterministic(t *testing.T) {
	rng1 := xrand.New(20)
	rng2 := xrand.New(20)
	p := 32
	p1 := ZipfPlan(rng1, p, 500, 1.0)
	p2 := ZipfPlan(rng2, p, 500, 1.0)
	r1 := UnbalancedSend(machine(p, 8, 2, 44), p1, Options{})
	r2 := UnbalancedSend(machine(p, 8, 2, 44), p2, Options{})
	if r1.Time != r2.Time || r1.Send.MaxSlot != r2.Send.MaxSlot {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestTemplateSendDeliversAndSeparates(t *testing.T) {
	rng := xrand.New(30)
	p, mm := 32, 16
	plan := ZipfPlan(rng, p, 600, 1.0)
	for _, sep := range []int{0, 1, 3} {
		m := machine(p, mm, 2, 31)
		r := TemplateSend(m, plan, sep, Options{Eps: 0.5})
		wantFlits, wantSum := planChecksum(plan)
		gotFlits, gotSum := deliveredFlits(m)
		if gotFlits != wantFlits || gotSum != wantSum {
			t.Fatalf("sep=%d: delivery mismatch", sep)
		}
		if r.Period < (sep+1)*r.N/mm {
			t.Fatalf("sep=%d: period %d not scaled by stride", sep, r.Period)
		}
	}
}

func TestTemplateSendZeroSepMatchesShape(t *testing.T) {
	// sep=0 degenerates to Unbalanced-Send's schedule envelope.
	rng := xrand.New(32)
	p, mm := 32, 16
	plan := UniformPlan(rng, p, 10)
	m := machine(p, mm, 2, 33)
	r := TemplateSend(m, plan, 0, Options{Eps: 0.25, KnownN: 320})
	if r.Send.MaxSlot > mm+2 {
		t.Fatalf("sep=0 overloads: %d > m=%d", r.Send.MaxSlot, mm)
	}
}

func TestTemplateSendNegativePanics(t *testing.T) {
	m := machine(4, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative sep accepted")
		}
	}()
	TemplateSend(m, &work.Step{}, -1, Options{})
}

// The separation property itself: in the sending superstep, consecutive
// messages of any one processor are at least sep+1 slots apart (verified
// via the per-proc slot sets recomputed from a fresh deterministic run).
func TestTemplateSendRespectsSeparation(t *testing.T) {
	p, mm, sep := 16, 8, 2
	plan := &work.Step{}
	for i := 0; i < p; i++ {
		for k := 0; k < 5; k++ {
			plan.Sends = append(plan.Sends, work.Send{Proc: i, Dst: (i + 1) % p})
		}
	}
	m := machine(p, mm, 2, 35)
	r := TemplateSend(m, plan, sep, Options{KnownN: 5 * p})
	// With 5 messages per proc at stride 3, the superstep spans at least
	// (5-1)*3+1 slots for every processor.
	if r.Send.Steps < (5-1)*(sep+1)+1 {
		t.Fatalf("superstep spans %d steps, separation not honored", r.Send.Steps)
	}
}

// interleave returns plan's sends in a random order across processors that
// keeps each processor's own order: at each step it takes the next send of
// a random processor that still has one.
func interleave(plan Plan, p int, rng *xrand.Source) Plan {
	rows := make([][]work.Send, p)
	for _, s := range plan.Sends {
		rows[s.Proc] = append(rows[s.Proc], s)
	}
	out := &work.Step{}
	for len(out.Sends) < len(plan.Sends) {
		if i := rng.Intn(p); len(rows[i]) > 0 {
			out.Sends = append(out.Sends, rows[i][0])
			rows[i] = rows[i][1:]
		}
	}
	return out
}

// The stored order of a plan's sends across processors does not matter: a
// step whose sends are shuffled across processors, each processor's own
// order kept, schedules and delivers exactly like the same step in
// processor order — the same Result and the same inboxes, message for
// message — under every scheduler and under Replay.
func TestShuffledPlanMatchesProcessorOrder(t *testing.T) {
	rng := xrand.New(41)
	p, mm, l := 16, 4, 2
	ordered := UnbalancedExchangePlan(rng, p, 4)
	next := make([]int, p) // dense slots, so Replay can run the plan too
	for i := range ordered.Sends {
		s := &ordered.Sends[i]
		s.Slot, s.B = next[s.Proc], int64(i)
		next[s.Proc] += s.Flits()
	}
	shuffled := interleave(ordered, p, rng)
	if slices.Equal(shuffled.Sends, ordered.Sends) {
		t.Fatal("interleave left the plan in processor order")
	}
	inboxes := func(m *bsp.Machine) [][]bsp.Msg {
		out := make([][]bsp.Msg, p)
		for i := range out {
			out[i] = slices.Clone(m.Inbox(i))
		}
		return out
	}
	runs := append(slices.Clone(algos),
		algo{"TemplateSend", func(m *bsp.Machine, plan Plan, opt Options) Result { return TemplateSend(m, plan, 1, opt) }},
		algo{"Replay", func(m *bsp.Machine, plan Plan, _ Options) Result { return Result{Send: Replay(m, plan)} }})
	for _, a := range runs {
		ma, mb := machine(p, mm, l, 5), machine(p, mm, l, 5)
		ra := a.run(ma, ordered, Options{Eps: 0.5})
		rb := a.run(mb, shuffled, Options{Eps: 0.5})
		if ra != rb {
			t.Errorf("%s: processor-order result %+v != shuffled result %+v", a.name, ra, rb)
		}
		if ia, ib := inboxes(ma), inboxes(mb); !reflect.DeepEqual(ia, ib) {
			t.Errorf("%s: deliveries differ between processor order and shuffled order", a.name)
		}
		if ma.Time() != mb.Time() {
			t.Errorf("%s: machine time %v != %v", a.name, ma.Time(), mb.Time())
		}
	}
}
