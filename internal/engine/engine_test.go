package engine

import (
	"reflect"
	"sync"
	"testing"
)

// step commits one trivial superstep on c with the given cost and traffic.
func step(c *Core, cost float64, n, maxSlot, overload int) {
	c.Commit(StepStats{N: n, MaxSlot: maxSlot, Overload: overload, Cost: cost})
}

// The clock sums committed costs, and the observer receives
// the whole trace of committed steps, numbered from 0 again after
// ResetClock.
func TestCoreClockAndTrace(t *testing.T) {
	var got []StepStats
	c := NewCore("test", 4, ObserverFunc(func(st StepStats) { got = append(got, st) }))
	step(c, 3, 1, 1, 0)
	step(c, 5, 2, 1, 0)
	if c.Time() != 8 {
		t.Fatalf("Time = %v, want 8", c.Time())
	}
	if c.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", c.Steps())
	}
	want := []StepStats{
		{Machine: "test", Index: 0, N: 1, MaxSlot: 1, Cost: 3},
		{Machine: "test", Index: 1, N: 2, MaxSlot: 1, Cost: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observed trace = %+v, want %+v", got, want)
	}
	c.ResetClock()
	if c.Time() != 0 || c.Steps() != 0 {
		t.Fatal("ResetClock did not clear state")
	}
	step(c, 1, 0, 0, 0)
	if last := got[len(got)-1]; last.Index != 0 {
		t.Fatalf("first step after ResetClock has index %d", last.Index)
	}
}

func TestHistRecycled(t *testing.T) {
	c := NewCore("test", 2, nil)
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
	c := NewCore("test", 5, nil)
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

func TestObserverSeesCommittedSteps(t *testing.T) {
	var got []StepStats
	c := NewCore("obs", 3, ObserverFunc(func(st StepStats) { got = append(got, st) }))
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
	c := NewCore("test", 1, nil)
	step(c, 1, 0, 0, 0) // must not panic
}

// An observer sees the steps of the machine it was constructed with and no
// other: a machine built without one notifies nobody, and ResetClock keeps
// the observer.
func TestObserverSeesOnlyItsMachine(t *testing.T) {
	var a, b int
	ca := NewCore("a", 1, ObserverFunc(func(StepStats) { a++ }))
	cb := NewCore("b", 1, ObserverFunc(func(StepStats) { b++ }))
	cn := NewCore("none", 1, nil)
	step(ca, 1, 0, 0, 0)
	step(cb, 1, 0, 0, 0)
	step(cb, 1, 0, 0, 0)
	step(cn, 1, 0, 0, 0)
	ca.ResetClock()
	step(ca, 1, 0, 0, 0)
	if a != 2 || b != 2 {
		t.Fatalf("observers saw a=%d b=%d steps, want 2 and 2", a, b)
	}
}

// Machines driven on concurrent goroutines each report to their own
// observer, with no shared state on the notify path (run under -race).
func TestConcurrentMachinesObserveOwnSteps(t *testing.T) {
	want := []int{3, 5, 7}
	got := make([]int, len(want))
	var wg sync.WaitGroup
	for k, steps := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCore("test", 2, ObserverFunc(func(StepStats) { got[k]++ }))
			for i := 0; i < steps; i++ {
				step(c, 1, 1, 1, 0)
			}
		}()
	}
	wg.Wait()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("machine %d: observer saw %d steps, want %d", k, got[k], want[k])
		}
	}
}

// Notifying an observer keeps the commit path allocation-free.
func TestObservedStepZeroAllocs(t *testing.T) {
	n := 0
	c := NewCore("test", 2, ObserverFunc(func(StepStats) { n++ }))
	step(c, 1, 0, 0, 0) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		step(c, 1, 0, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("observed step costs %v allocs, want 0", allocs)
	}
	if n != 102 {
		t.Fatalf("observer saw %d steps, want 102", n)
	}
}

func TestGlobalCountersAdvance(t *testing.T) {
	before := GlobalCounters()
	c := NewCore("test", 2, nil)
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
