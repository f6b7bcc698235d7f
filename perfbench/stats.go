package main

import (
	"math"
	"sort"

	"mdq/internal/trace"
)

// percentile returns the Harrell–Davis estimate of the p-th percentile
// (0–100) of xs: a weighted mean of all order statistics, with weights
// from the Beta((n+1)q, (n+1)(1−q)) distribution, q = p/100. Unlike a
// single order statistic, it does not jump between the modes of a
// bimodal sample as a few samples come and go. It returns 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	q := p / 100
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i := range s {
		cur := regIncBeta(float64(i+1)/n, a, b)
		est += (cur - prev) * s[i]
		prev = cur
	}
	return est
}

// regIncBeta returns the regularized incomplete beta function
// I_x(a, b) for a, b > 0; a or b of 0 (a 0th or 100th percentile)
// puts all weight on the first or last order statistic.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x >= 1:
		return 1
	case x <= 0:
		return 0
	case a == 0: // all weight at 0
		return 1
	case b == 0: // all weight at 1
		return 0
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other are counted once. A span marked cumulative holds time summed
// over many short stretches, not an interval: it covers nothing of its
// parent, and its self time is its duration.
func selfTimes(spans []trace.Span) map[uint64]int64 {
	kids := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 && s.Attrs["cumulative"] != "true" {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.Start + s.Dur})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur - covered(kids[s.ID], s.Start, s.Start+s.Dur)
	}
	return out
}
