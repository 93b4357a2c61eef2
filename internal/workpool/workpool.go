// Package workpool provides a bounded parallel-for that runs whole
// independent units of work — the service executor's experiment cells and
// `bandsim fuzz`'s seeds — on real CPU cores. It chunks the index space so
// that goroutine overhead stays proportional to the worker count, not the
// number of items. The machine engines do not use it: a superstep runs its
// processors one after another on the driver goroutine.
package workpool

import (
	"runtime"
	"sync"
)

// defaultWorkers is the number of OS-level workers used when a Pool is
// created with workers <= 0.
func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Pool runs parallel-for loops with a fixed worker count. The zero value is
// not usable; construct with New. Pool is safe for concurrent use.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; workers <= 0 selects
// GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// ForChunks invokes fn(lo, hi) for contiguous disjoint ranges covering
// [0, n), one range per worker, and returns after every call has finished.
// Chunking is contiguous rather than strided so that per-item state arrays
// are traversed with good locality, and callers amortize per-chunk
// setup (a scratch buffer, a cancellation check) across the range.
//
// A panic in fn never escapes a worker goroutine. Each chunk recovers its
// own panic and the other chunks run to completion; ForChunks then
// re-panics on the caller's goroutine with the value from the
// lowest-numbered chunk that panicked. Chunks are ordered, so that is the
// panic the serial loop would have raised first, whatever the worker count.
func (p *Pool) ForChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := min(p.workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	panics := make([]any, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for c := range panics {
		lo := c * chunk
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[c] = recover() }()
			fn(lo, hi)
		}()
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}
