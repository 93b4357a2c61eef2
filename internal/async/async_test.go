package async

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbw/internal/xrand"
)

func TestAllMessagesDelivered(t *testing.T) {
	p, m := 16, 4
	mach := New(Config{P: p, M: m, Latency: 2})
	var received int64
	done := mach.Run(func(pr *Proc) {
		if pr.ID() == 0 {
			for k := 0; k < p-1; k++ {
				pr.Send(1+k%(p-1), int64(k))
			}
			return
		}
		// Everyone else receives exactly one.
		msg := pr.Recv()
		if msg.Src != 0 {
			t.Errorf("unexpected src %d", msg.Src)
		}
		atomic.AddInt64(&received, 1)
	})
	if received != int64(p-1) {
		t.Fatalf("received %d, want %d", received, p-1)
	}
	if mach.Sent() != p-1 {
		t.Fatalf("Sent = %d", mach.Sent())
	}
	if done <= 0 {
		t.Fatal("zero completion time")
	}
}

// Backpressure enforces the aggregate limit without any schedule: a naive
// one-to-all burst completes within a small factor of the offline bound
// max(n/m, x̄, ȳ) + L — in the async model, the network's flow control does
// what Unbalanced-Send does in the bulk-synchronous model.
func TestBackpressureSelfSchedules(t *testing.T) {
	p, m := 64, 8
	per := 16
	mach := New(Config{P: p, M: m, Latency: 4})
	n := p * per
	done := mach.Run(func(pr *Proc) {
		// Every processor sends per messages (naively, no staggering) and
		// receives per messages.
		for k := 0; k < per; k++ {
			pr.Send((pr.ID()+1+k)%p, int64(k))
		}
		for k := 0; k < per; k++ {
			pr.Recv()
		}
	})
	lb := mach.OfflineBound(n, per, per)
	if done < lb {
		t.Fatalf("completion %v below the lower bound %v", done, lb)
	}
	if done > 2*lb+float64(per) {
		t.Fatalf("completion %v far above the bound %v: backpressure not self-scheduling", done, lb)
	}
}

// A point-imbalanced workload: one sender with x̄ = n messages. Completion
// is governed by the sender's own pipelining (x̄), not by g·x̄ — the async
// machine is globally, not locally, limited.
func TestPointImbalanceAsync(t *testing.T) {
	p, m := 32, 4
	n := 128
	mach := New(Config{P: p, M: m, Latency: 2})
	counts := make([]int64, p)
	done := mach.Run(func(pr *Proc) {
		switch {
		case pr.ID() == 0:
			for k := 0; k < n; k++ {
				pr.Send(1+k%(p-1), int64(k))
			}
		default:
			want := n / (p - 1)
			if pr.ID() <= n%(p-1) {
				want++
			}
			for k := 0; k < want; k++ {
				pr.Recv()
			}
			atomic.AddInt64(&counts[pr.ID()], int64(want))
		}
	})
	lb := mach.OfflineBound(n, n, (n+p-2)/(p-1))
	if done < float64(n) {
		t.Fatalf("completion %v below x̄ = %d", done, n)
	}
	if done > 2*lb {
		t.Fatalf("completion %v vs bound %v", done, lb)
	}
}

// The admission counter is exact: n sends consume exactly n tokens, so the
// last admission departs no earlier than (n−1)/m.
func TestNetworkTokenBucketExact(t *testing.T) {
	p, m := 8, 2
	mach := New(Config{P: p, M: m, Latency: 0})
	done := mach.Run(func(pr *Proc) {
		pr.Send((pr.ID()+1)%p, 1)
		pr.Recv()
	})
	if mach.Sent() != p {
		t.Fatalf("Sent = %d, want %d", mach.Sent(), p)
	}
	if done < float64(p-1)/float64(m) {
		t.Fatalf("completion %v below (n-1)/m", done)
	}
}

func TestWorkAdvancesClock(t *testing.T) {
	mach := New(Config{P: 1, M: 1, Latency: 0})
	done := mach.Run(func(pr *Proc) {
		pr.Work(17)
		pr.Work(-3) // ignored
	})
	if done != 17 {
		t.Fatalf("clock = %v, want 17", done)
	}
}

func TestValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(Config{P: 0, M: 1}) },
		func() { New(Config{P: 1, M: 0}) },
		func() { New(Config{P: 1, M: 1, Latency: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad config accepted")
				}
			}()
			fn()
		}()
	}
}

func TestSendValidation(t *testing.T) {
	mach := New(Config{P: 2, M: 1, Latency: 0})
	pr := &Proc{id: 0, m: mach} // in-package: drive a processor directly
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dst accepted")
		}
	}()
	pr.Send(5, 1)
}

// Throughput comparison across imbalance levels: the async completion
// tracks the global bound for both balanced and skewed loads.
func TestAsyncTracksGlobalBoundAcrossSkew(t *testing.T) {
	p, m := 32, 8
	rng := xrand.New(3)
	for _, skew := range []int{1, 4, 16} {
		heavy := p / skew
		if heavy < 1 {
			heavy = 1
		}
		per := 8 * skew // heavy senders carry more
		// Destinations: uniform rotation, so ȳ ≈ n/p · small factor.
		n := heavy * per
		recvCount := make([]int64, p)
		for k := 0; k < n; k++ {
			recvCount[(k+1)%p]++
		}
		mach := New(Config{P: p, M: m, Latency: 2})
		kseq := make([][]int, p)
		idx := 0
		for s := 0; s < heavy; s++ {
			for j := 0; j < per; j++ {
				kseq[s] = append(kseq[s], (idx+1)%p)
				idx++
			}
		}
		done := mach.Run(func(pr *Proc) {
			for _, dst := range kseq[pr.ID()] {
				pr.Send(dst, 1)
			}
			for k := int64(0); k < recvCount[pr.ID()]; k++ {
				pr.Recv()
			}
		})
		xbar, ybar := per, int(maxOf(recvCount))
		lb := mach.OfflineBound(n, xbar, ybar)
		if done < lb || done > 2.5*lb+float64(xbar) {
			t.Fatalf("skew %d: completion %v vs bound %v", skew, done, lb)
		}
		_ = rng
	}
}

func maxOf(xs []int64) int64 {
	m := int64(0)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// uniformBurst is the async/backpressure workload: every processor sends
// per messages to its next per neighbours, then receives per messages.
func uniformBurst(p, per int) func(pr *Proc) {
	return func(pr *Proc) {
		for k := 0; k < per; k++ {
			pr.Send((pr.ID()+1+k)%p, int64(k))
		}
		for k := 0; k < per; k++ {
			pr.Recv()
		}
	}
}

// The baton schedule makes completion a function of the program alone: the
// same run returns the same time at GOMAXPROCS 1 and 4, run after run.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var out []float64
		for _, c := range []struct{ p, m, per int }{{128, 16, 32}, {32, 3, 8}, {257, 16, 4}} {
			out = append(out, New(Config{P: c.p, M: c.m, Latency: 4}).Run(uniformBurst(c.p, c.per)))
			// A skewed exchange: processor 0 also drains everyone's extra
			// message, interleaving its receives with the others' sends.
			mach := New(Config{P: c.p, M: c.m, Latency: 2})
			out = append(out, mach.Run(func(pr *Proc) {
				if pr.ID() == 0 {
					for k := 1; k < c.p; k++ {
						pr.Recv()
						pr.Work(1)
					}
					return
				}
				pr.Work(float64(pr.ID() % 5))
				pr.Send(0, int64(pr.ID()))
			}))
		}
		return out
	}
	want := run(1)
	for rep := 0; rep < 3; rep++ {
		got := run(4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d case %d: completion %v at GOMAXPROCS 4, %v at 1", rep, i, got[i], want[i])
			}
		}
	}
}

// A program in which every processor only receives can never progress; Run
// panics with a deadlock message instead of hanging, and unwinds the
// blocked processors.
func TestRecvOnlyProgramDeadlockPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "deadlock") {
				t.Fatalf("recovered %v, want a deadlock panic", r)
			}
		}()
		New(Config{P: 8, M: 2}).Run(func(pr *Proc) { pr.Recv() })
	}()
	waitGoroutines(t, before)
}

// A panicking processor program re-panics on Run's caller with the
// program's value; the other processors are unwound.
func TestProgramPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		New(Config{P: 4, M: 1}).Run(func(pr *Proc) {
			if pr.ID() == 2 {
				panic("boom")
			}
			pr.Recv()
		})
	}()
	waitGoroutines(t, before)
}

// waitGoroutines fails t unless the goroutine count falls back to n.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > n {
		t.Fatalf("%d goroutines left running, want %d", got, n)
	}
}
