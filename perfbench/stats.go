package main

import (
	"math"
	"sort"
	"time"

	"mrdb/internal/sim"
)

// minBeyond is the fewest samples a reported percentile must have beyond
// it.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile of samples, which
// must be sorted, and how many samples lie beyond it.
func percentile(sorted []sim.Duration, q float64) (sim.Duration, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailQ is the percentile reported as the tail: 99 when the sample has at
// least minBeyond samples beyond it, otherwise the highest percentile that
// does (never below the median).
func tailQ(n int) float64 {
	if n >= 100*minBeyond {
		return 99
	}
	if n <= 2*minBeyond {
		return 50
	}
	return math.Floor(1000*float64(n-minBeyond)/float64(n)) / 10
}

func sortedCopy(in []sim.Duration) []sim.Duration {
	out := append([]sim.Duration(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d sim.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
