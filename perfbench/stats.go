package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to count as measured rather than as the single slowest sample.
const minTail = 10

// pctl is one percentile of a sample: its value, the sample count it was
// taken from, and how many samples lie beyond it.
type pctl struct {
	P     float64
	Value float64
	N     int
	Tail  int
}

// Supported reports whether at least minTail samples lie beyond the
// percentile.
func (p pctl) Supported() bool { return p.Tail >= minTail }

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0,100]); xs need not be sorted and is not modified. An empty sample
// gives a zero pctl.
func percentile(xs []float64, p float64) pctl {
	if len(xs) == 0 {
		return pctl{P: p}
	}
	s := sortedCopy(xs)
	rank := nearestRank(len(s), p)
	return pctl{P: p, Value: s[rank-1], N: len(s), Tail: len(s) - rank}
}

// highestPercentile returns the highest of the candidate percentiles that
// leaves at least minTail samples beyond it, together with the sample
// count. When no candidate qualifies it returns the median with Tail
// reporting how thin the sample is.
func highestPercentile(xs []float64, candidates []float64) pctl {
	s := sortedCopy(xs)
	best := pctl{P: 50, N: len(s)}
	if len(s) > 0 {
		rank := nearestRank(len(s), 50)
		best.Value, best.Tail = s[rank-1], len(s)-rank
	}
	for _, p := range candidates {
		if len(s) == 0 {
			break
		}
		rank := nearestRank(len(s), p)
		if len(s)-rank >= minTail && p > best.P {
			best = pctl{P: p, Value: s[rank-1], N: len(s), Tail: len(s) - rank}
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median (0 for an empty sample).
func median(xs []float64) float64 { return percentile(xs, 50).Value }
