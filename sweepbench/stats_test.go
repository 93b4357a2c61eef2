package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must sort
	}
	return xs
}

func TestPercentileReportsSampleCount(t *testing.T) {
	s := Summarize(seq(200))
	for _, tc := range []struct{ q, want float64 }{{50, 100}, {90, 180}, {99, 198}, {100, 200}, {0.1, 1}} {
		v, n := s.Percentile(tc.q)
		if v != tc.want || n != 200 {
			t.Errorf("p%g = %g over n=%d, want %g over 200", tc.q, v, n, tc.want)
		}
	}
	if v, n := Summarize(nil).Percentile(50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty: %g over %d, want NaN over 0", v, n)
	}
	if s.Median() != 100.5 || Summarize(seq(5)).Median() != 3 || s.Max() != 200 || s.Sum() != 20100 {
		t.Errorf("median %g max %g sum %g", s.Median(), s.Max(), s.Sum())
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		okay bool
	}{
		{10, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		s := Summarize(seq(tc.n))
		q, v, ok := s.Tail()
		if ok != tc.okay || (ok && q != tc.q) {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", tc.n, q, ok, tc.q, tc.okay)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range s.sorted {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g=%g has %d samples beyond it", tc.n, q, v, beyond)
			}
		}
	}
}

func TestDescribeCarriesSampleCount(t *testing.T) {
	if d := Summarize(seq(5)).Describe("%.1f"); !strings.Contains(d, "(n=5)") || !strings.Contains(d, "max=5.0") {
		t.Errorf("small sample: %q", d)
	}
	if d := Summarize(seq(1000)).Describe("%.0f"); !strings.Contains(d, "p99=990") || !strings.Contains(d, "(n=1000)") {
		t.Errorf("large sample: %q", d)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]float64{{5, 7}, {0, 2}, {1, 3}, {6, 12}}
	if got := covered(ivs, 0, 10); got != 3+5 {
		t.Errorf("covered = %g, want 8", got)
	}
	spans := []span{
		{ID: 1, Name: "root", StartMS: 0, EndMS: 10},
		{ID: 2, Name: "kid", Parent: 1, StartMS: 2, EndMS: 5},
		{ID: 3, Name: "kid", Parent: 1, StartMS: 4, EndMS: 6},
	}
	st := selfTimes(spans)
	if st["root"].totalMS != 6 || st["kid"].totalMS != 5 || st["kid"].n != 2 {
		t.Errorf("self times %+v", st)
	}
}
