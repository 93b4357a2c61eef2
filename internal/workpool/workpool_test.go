package workpool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDefaultWorkers(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) produced < 1 worker")
	}
	if New(-1).Workers() < 1 {
		t.Fatal("New(-1) produced < 1 worker")
	}
	if New(5).Workers() != 5 {
		t.Fatal("New(5) did not keep worker count")
	}
}

func TestForChunksCoverDisjointly(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%5000) + 1
		workers := int(seed%7) + 1
		p := New(workers)
		covered := make([]int32, n)
		p.ForChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForChunksSingleWorkerSingleCall(t *testing.T) {
	p := New(1)
	calls := 0
	p.ForChunks(100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("single-worker chunk = [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestForChunksZero(t *testing.T) {
	p := New(4)
	called := false
	p.ForChunks(0, func(lo, hi int) { called = true })
	p.ForChunks(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ForChunks called fn for non-positive n")
	}
}

func TestForChunksFewerItemsThanWorkers(t *testing.T) {
	p := New(16)
	var total int32
	p.ForChunks(3, func(lo, hi int) { atomic.AddInt32(&total, int32(hi-lo)) })
	if total != 3 {
		t.Fatalf("covered %d, want 3", total)
	}
}

// A panicking index must surface on the caller as the panic of the lowest
// panicking index — what the serial loop raises — at every worker count,
// and every chunk that did not panic must still run to completion.
func TestForChunksPanicIsWorkerCountInvariant(t *testing.T) {
	const n = 64
	bad := map[int]bool{13: true, 40: true, 57: true}
	for _, workers := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		var clean [][2]int // chunks that returned normally
		ran := make([]int32, n)
		got := func() (v any) {
			defer func() { v = recover() }()
			New(workers).ForChunks(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if bad[i] {
						panic(fmt.Sprintf("proc %d failed", i))
					}
					atomic.AddInt32(&ran[i], 1)
				}
				mu.Lock()
				clean = append(clean, [2]int{lo, hi})
				mu.Unlock()
			})
			return nil
		}()
		if got != "proc 13 failed" {
			t.Fatalf("workers=%d: re-raised %v, want proc 13 failed", workers, got)
		}
		for _, c := range clean {
			for i := c[0]; i < c[1]; i++ {
				if ran[i] != 1 {
					t.Fatalf("workers=%d: clean chunk [%d,%d) skipped index %d", workers, c[0], c[1], i)
				}
			}
		}
		// Chunks are contiguous and cover [0, n): the chunks that returned
		// are exactly those holding no bad index.
		width := (n + workers - 1) / workers
		want := 0
		for lo := 0; lo < n; lo += width {
			hasBad := false
			for i := lo; i < min(lo+width, n); i++ {
				hasBad = hasBad || bad[i]
			}
			if !hasBad {
				want++
			}
		}
		if len(clean) != want {
			t.Fatalf("workers=%d: %d chunks completed, want %d", workers, len(clean), want)
		}
	}
}
