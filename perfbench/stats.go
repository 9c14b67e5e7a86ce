package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported upper
// percentile: a p99 over 50 samples is a maximum in disguise.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between closest ranks. It refuses an upper percentile
// (p > 0.5) that fewer than minTail samples lie beyond, and any
// percentile of an empty sample.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g out of (0, 100)", 100*p)
	}
	if p > 0.5 {
		if beyond := samplesBeyond(n, p); beyond < minTail {
			return 0, fmt.Errorf("percentile p%g needs %d samples beyond it, %d samples leave %d",
				100*p, minTail, n, beyond)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// highestPercentile returns the highest of p90, p99 and p99.9 that n
// samples support, or 0 when none is.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.90, 0.99, 0.999} {
		if samplesBeyond(n, p) >= minTail {
			best = p
		}
	}
	return best
}

// median is the 0.5-quantile; it is 0 for an empty sample, which
// callers only pass when the metric does not apply to the workload.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := percentile(xs, 0.5)
	return m
}

// meanOfMedians is the mean over groups of each group's median: the
// run's figure over a fixed set of inputs, each measured robustly.
func meanOfMedians(groups [][]float64) float64 {
	sum, n := 0.0, 0
	for _, g := range groups {
		if len(g) > 0 {
			sum += median(g)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// span is one timed interval on the host clock.
type span struct {
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap each other (shards run in
// parallel) or stick out of the parent; only their union inside the
// parent is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// samplesBeyond is how many of n samples lie above the p-quantile,
// with a tolerance for p's binary rounding (0.9 × 100 is 90, not 91).
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9))
}
