package bench

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// with fewer, the percentile is a handful of outliers, not a tail.
const minTail = 10

// median returns the middle of vs (the mean of the two middle values for an
// even count). vs is not modified; an empty vs yields NaN.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank p-th percentile of sorted, refusing when
// fewer than minTail samples lie beyond it.
func tail(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method (Python's statistics.quantiles(vs, n=4)). A single
// value is its own quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
