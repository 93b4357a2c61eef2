package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// Summary is a sorted sample set. Every figure read from it travels with
// its sample count, so a percentile over three samples can never pass for
// one over three thousand.
type Summary struct {
	sorted []float64
}

// Summarize copies and sorts xs.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{sorted: s}
}

// N is the sample count.
func (s Summary) N() int { return len(s.sorted) }

// Percentile returns the nearest-rank q-th percentile (0 < q <= 100) and
// the sample count it was taken over. An empty summary gives NaN.
func (s Summary) Percentile(q float64) (float64, int) {
	n := len(s.sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	return s.sorted[rank(q, n)-1], n
}

// rank is the 1-based nearest rank of the q-th percentile among n samples.
// The epsilon keeps float rounding (99.9/100·10000 = 9990.000000000002)
// from pushing an exact rank up by one.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// Median is the middle sample, or the mean of the middle two; NaN when
// empty.
func (s Summary) Median() float64 {
	n := len(s.sorted)
	if n == 0 {
		return math.NaN()
	}
	return (s.sorted[(n-1)/2] + s.sorted[n/2]) / 2
}

// Max is the largest sample, NaN when empty.
func (s Summary) Max() float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	return s.sorted[len(s.sorted)-1]
}

// Sum adds every sample.
func (s Summary) Sum() float64 {
	t := 0.0
	for _, v := range s.sorted {
		t += v
	}
	return t
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 90}

// Tail returns the highest percentile of tailLadder that still has at
// least ten samples ranked beyond it, with its value. ok is false when no
// percentile of the ladder qualifies (fewer than 100 samples).
func (s Summary) Tail() (q, v float64, ok bool) {
	n := len(s.sorted)
	for _, q := range tailLadder {
		if r := rank(q, n); n-r >= 10 {
			return q, s.sorted[r-1], true
		}
	}
	return 0, math.NaN(), false
}

// Describe renders the median and the qualifying tail with the sample
// count, e.g. "p50=1.71 p90=1.80 (n=130)".
func (s Summary) Describe(format string) string {
	if s.N() == 0 {
		return "(n=0)"
	}
	out := "p50=" + fmt.Sprintf(format, s.Median())
	if q, v, ok := s.Tail(); ok {
		out += fmt.Sprintf(" p%g=", q) + fmt.Sprintf(format, v)
	} else {
		out += " max=" + fmt.Sprintf(format, s.Max()) + " (no percentile has 10 samples beyond it)"
	}
	return out + fmt.Sprintf(" (n=%d)", s.N())
}

// cpuSeconds is the CPU time (user + system) this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
