package engine

import (
	"sync"
	"testing"
)

// A tagged observer sees exactly the steps committed on tagged goroutines,
// each with the committing goroutine's own tag — concurrent tagged drivers
// never cross-talk, and untagged drivers stay invisible.
func TestTaggedObserverScopesByGoroutine(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	remove := AddTaggedObserver(TaggedObserverFunc(func(tag any, st StepStats) {
		mu.Lock()
		got[tag.(string)]++
		mu.Unlock()
	}))
	defer remove()

	var wg sync.WaitGroup
	drive := func(tag string, steps int) {
		defer wg.Done()
		if tag != "" {
			untag := TagGoroutine(tag)
			defer untag()
		}
		c := NewCore[int]("test", 2, false)
		for i := 0; i < steps; i++ {
			step(c, 1, 1, 1, 0)
		}
	}
	wg.Add(3)
	go drive("a", 3)
	go drive("b", 5)
	go drive("", 7) // untagged: invisible to the tagged tap
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if got["a"] != 3 || got["b"] != 5 || len(got) != 2 {
		t.Fatalf("tagged step counts = %v, want a:3 b:5 only", got)
	}
}

// Untagging stops delivery immediately, and a double untag is harmless.
func TestTagGoroutineUntagStopsDelivery(t *testing.T) {
	var mu sync.Mutex
	n := 0
	remove := AddTaggedObserver(TaggedObserverFunc(func(any, StepStats) {
		mu.Lock()
		n++
		mu.Unlock()
	}))
	defer remove()

	c := NewCore[int]("test", 2, false)
	untag := TagGoroutine("x")
	step(c, 1, 0, 0, 0)
	untag()
	untag() // idempotent
	step(c, 1, 0, 0, 0)

	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("observed %d steps, want 1 (only the tagged one)", n)
	}
	if tagged.count.Load() != 0 {
		t.Fatalf("tag count = %d after untag, want 0", tagged.count.Load())
	}
}

// With no tags and no tagged observers the commit path stays allocation-free
// — the gate is two atomic loads, not a stack parse.
func TestTaggedTapIdleCostIsZeroAllocs(t *testing.T) {
	c := NewCore[int]("test", 2, false)
	step(c, 1, 0, 0, 0) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		step(c, 1, 0, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("idle tagged tap costs %v allocs/step, want 0", allocs)
	}
}

// Removing a tagged observer stops delivery even while the goroutine stays
// tagged, and remove is idempotent.
func TestAddTaggedObserverRemove(t *testing.T) {
	var mu sync.Mutex
	n := 0
	remove := AddTaggedObserver(TaggedObserverFunc(func(any, StepStats) {
		mu.Lock()
		n++
		mu.Unlock()
	}))
	untag := TagGoroutine("y")
	defer untag()

	c := NewCore[int]("test", 2, false)
	step(c, 1, 0, 0, 0)
	remove()
	remove()
	step(c, 1, 0, 0, 0)

	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("observed %d steps, want 1", n)
	}
}
