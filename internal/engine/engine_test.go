package engine

import "testing"

// step drives one trivial superstep on c whose merge reports the given cost
// and traffic.
func step(c *Core[int], cost float64, n, maxSlot, overload int) {
	c.Step(func(i int) {}, func() (int, StepStats) {
		return c.Steps() + 1, StepStats{N: n, MaxSlot: maxSlot, Overload: overload, Cost: cost}
	})
}

func TestCoreClockAndTrace(t *testing.T) {
	c := NewCore[int]("test", 4, true)
	if c.P() != 4 || c.Label() != "test" {
		t.Fatalf("P/Label = %d/%q", c.P(), c.Label())
	}
	step(c, 3, 1, 1, 0)
	step(c, 5, 2, 1, 0)
	if c.Time() != 8 {
		t.Fatalf("Time = %v, want 8", c.Time())
	}
	if c.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", c.Steps())
	}
	if c.Last() != 2 {
		t.Fatalf("Last = %d, want 2", c.Last())
	}
	if got := c.Trace(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Trace = %v", got)
	}
	c.ChargeTime(10)
	if c.Time() != 18 {
		t.Fatalf("Time after ChargeTime = %v", c.Time())
	}
	c.ResetClock()
	if c.Time() != 0 || c.Steps() != 0 || c.Trace() != nil || len(c.Recent()) != 0 {
		t.Fatal("ResetClock did not clear state")
	}
}

func TestCoreNoTraceByDefault(t *testing.T) {
	c := NewCore[int]("test", 2, false)
	step(c, 1, 0, 0, 0)
	if c.Trace() != nil {
		t.Fatal("trace retained without keepTrace")
	}
}

func TestCoreBodyRunsEveryProcessor(t *testing.T) {
	const p = 100
	c := NewCore[int]("test", p, false)
	hits := make([]int, p)
	c.Step(func(i int) { hits[i]++ }, func() (int, StepStats) { return 0, StepStats{} })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("processor %d ran %d times", i, h)
		}
	}
}

func TestHistRecycled(t *testing.T) {
	c := NewCore[int]("test", 2, false)
	h1 := c.Hist(8)
	if len(h1) != 8 {
		t.Fatalf("len = %d", len(h1))
	}
	for i := range h1 {
		h1[i] = 7
	}
	h2 := c.Hist(4)
	if len(h2) != 4 {
		t.Fatalf("len = %d", len(h2))
	}
	for i, v := range h2 {
		if v != 0 {
			t.Fatalf("hist[%d] = %d, want zeroed", i, v)
		}
	}
	if &h1[0] != &h2[0] {
		t.Fatal("histogram buffer not recycled")
	}
}

func TestLedgerRecycled(t *testing.T) {
	c := NewCore[int]("test", 5, false)
	l1 := c.Ledger()
	if len(l1) != 5 {
		t.Fatalf("len = %d", len(l1))
	}
	l1[3] = 9
	l2 := c.Ledger()
	if l2[3] != 0 {
		t.Fatal("ledger not zeroed")
	}
	if &l1[0] != &l2[0] {
		t.Fatal("ledger buffer not recycled")
	}
}

func TestRecentRing(t *testing.T) {
	c := NewCore[int]("test", 1, false)
	for i := 0; i < ringCap+10; i++ {
		step(c, float64(i), 0, 0, 0)
	}
	rec := c.Recent()
	if len(rec) != ringCap {
		t.Fatalf("Recent returned %d entries, want %d", len(rec), ringCap)
	}
	// Oldest first; the last entry is the most recent step.
	if rec[len(rec)-1].Index != ringCap+9 {
		t.Fatalf("last ring entry index = %d", rec[len(rec)-1].Index)
	}
	for i := 1; i < len(rec); i++ {
		if rec[i].Index != rec[i-1].Index+1 {
			t.Fatalf("ring not in order at %d: %d then %d", i, rec[i-1].Index, rec[i].Index)
		}
		if rec[i].Hist != nil {
			t.Fatal("ring entry retained a histogram alias")
		}
	}
}

// TestRecentAtRingBoundary pins Recent's behavior at the wraparound edge:
// exactly ringCap committed steps must return all of them in order, and one
// more must drop exactly the oldest.
func TestRecentAtRingBoundary(t *testing.T) {
	c := NewCore[int]("test", 1, false)
	for i := 0; i < ringCap; i++ {
		step(c, float64(i), 0, 0, 0)
	}
	rec := c.Recent()
	if len(rec) != ringCap {
		t.Fatalf("at %d steps Recent returned %d entries", ringCap, len(rec))
	}
	if rec[0].Index != 0 || rec[ringCap-1].Index != ringCap-1 {
		t.Fatalf("at %d steps Recent spans [%d, %d]", ringCap, rec[0].Index, rec[ringCap-1].Index)
	}

	step(c, 0, 0, 0, 0) // step ringCap+1 evicts exactly index 0
	rec = c.Recent()
	if len(rec) != ringCap {
		t.Fatalf("at %d steps Recent returned %d entries", ringCap+1, len(rec))
	}
	if rec[0].Index != 1 || rec[ringCap-1].Index != ringCap {
		t.Fatalf("at %d steps Recent spans [%d, %d], want [1, %d]",
			ringCap+1, rec[0].Index, rec[ringCap-1].Index, ringCap)
	}
	for i := 1; i < len(rec); i++ {
		if rec[i].Index != rec[i-1].Index+1 {
			t.Fatalf("ring not in order at %d", i)
		}
	}
}

func TestObserverSeesCommittedSteps(t *testing.T) {
	c := NewCore[int]("obs", 3, false)
	var got []StepStats
	c.Attach(ObserverFunc(func(st StepStats) { got = append(got, st) }))
	step(c, 2, 5, 3, 1)
	step(c, 4, 6, 2, 0)
	if len(got) != 2 {
		t.Fatalf("observer saw %d steps", len(got))
	}
	for i, st := range got {
		if st.Machine != "obs" || st.Index != i {
			t.Fatalf("step %d: machine %q index %d", i, st.Machine, st.Index)
		}
	}
	if got[0].Cost != 2 || got[0].N != 5 || got[0].MaxSlot != 3 || got[0].Overload != 1 {
		t.Fatalf("step 0 fields: %+v", got[0])
	}
}

func TestAttachNilObserverIgnored(t *testing.T) {
	c := NewCore[int]("test", 1, false)
	c.Attach(nil)
	step(c, 1, 0, 0, 0) // must not panic
}

func TestGlobalObserverAddRemove(t *testing.T) {
	c := NewCore[int]("test", 1, false)
	var n int
	remove := AddGlobalObserver(ObserverFunc(func(st StepStats) { n++ }))
	step(c, 1, 0, 0, 0)
	step(c, 1, 0, 0, 0)
	remove()
	remove() // idempotent
	step(c, 1, 0, 0, 0)
	if n != 2 {
		t.Fatalf("global observer saw %d steps, want 2", n)
	}
}

func TestGlobalCountersAdvance(t *testing.T) {
	before := GlobalCounters()
	c := NewCore[int]("test", 2, false)
	step(c, 1, 10, 3, 2)
	step(c, 1, 5, 1, 0)
	after := GlobalCounters()
	if d := after.Supersteps - before.Supersteps; d != 2 {
		t.Fatalf("supersteps advanced by %d, want 2", d)
	}
	if d := after.Messages - before.Messages; d != 15 {
		t.Fatalf("messages advanced by %d, want 15", d)
	}
	if d := after.Overloads - before.Overloads; d != 2 {
		t.Fatalf("overloads advanced by %d, want 2", d)
	}
	if after.MaxSlotLoad < 3 {
		t.Fatalf("max slot load = %d, want >= 3", after.MaxSlotLoad)
	}
}
