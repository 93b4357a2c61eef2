package sched

import (
	"testing"

	"parbw/internal/work"
	"parbw/internal/xrand"
)

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
		Replay(m2, &ir.Steps[step])
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
	// Replay injects at the stored slots: superstep 1's lone send starts at
	// slot 7 and runs 3 flits.
	if stats[1].Steps != 10 {
		t.Fatalf("superstep 1 spans %d steps, want 10", stats[1].Steps)
	}
}

// A plan packed densely by the Builder (each processor's messages back to
// back from slot 0, payloads included) replays exactly as NaiveSend
// schedules it: the stored slots equal compile's row offsets.
func TestReplayDenseMatchesNaive(t *testing.T) {
	rng := xrand.New(3)
	p, mm, l := 16, 4, 2
	b := work.NewBuilder(p, mm, l)
	b.Step()
	for _, s := range ZipfPlan(rng, p, 200, 1.2).Sends {
		b.SendMsg(s.Proc, work.Send{Dst: s.Dst, Len: 1 + int(s.A%3), Tag: 2, A: s.A, B: -s.A, C: 7})
	}
	ir := b.MustIR()
	mr, mn := machine(p, mm, l, 11), machine(p, mm, l, 11)
	replayed := Replay(mr, &ir.Steps[0])
	naive := NaiveSend(mn, &ir.Steps[0])
	if replayed != naive.Send {
		t.Fatalf("Replay stats %+v != NaiveSend stats %+v", replayed, naive.Send)
	}
	for i := 0; i < p; i++ {
		a, b := mr.Inbox(i), mn.Inbox(i)
		if len(a) != len(b) {
			t.Fatalf("proc %d: %d vs %d messages", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("proc %d message %d: %+v != %+v", i, k, a[k], b[k])
			}
		}
	}
}

func TestReplayPanicsOnInvalidIR(t *testing.T) {
	st := &work.Step{Sends: []work.Send{{Proc: 0, Slot: 0, Dst: 9}}}
	defer func() {
		if recover() == nil {
			t.Fatal("Replay accepted an invalid step")
		}
	}()
	Replay(machine(2, 1, 1, 1), st)
}

func TestReplayAllPanicsOnMachineMismatch(t *testing.T) {
	ir := &work.IR{Version: work.Version, P: 4, M: 2, L: 1, Steps: []work.Step{{}}}
	defer func() {
		if recover() == nil {
			t.Fatal("ReplayAll accepted a machine-shape mismatch")
		}
	}()
	ReplayAll(machine(8, 2, 1, 1), ir)
}
