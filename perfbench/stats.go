package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (numpy's default), or NaN when xs
// is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// blockQuantile is the tail statistic of the latency metrics: the
// samples, in send order, are cut into consecutive blocks just large
// enough that each has ten samples beyond its q-quantile (1000 for p99,
// 100 for p90), and the result is the median of the blocks' quantiles.
// A burst of noise from outside the process spoils one block, not the
// figure. Samples after the last full block are left out. With fewer
// than one full block it is the plain quantile.
func blockQuantile(lat []float64, q float64) float64 {
	size := int(math.Round(10 / (1 - q)))
	if len(lat) < size {
		return quantile(lat, q)
	}
	var qs []float64
	for i := 0; i+size <= len(lat); i += size {
		qs = append(qs, quantile(lat[i:i+size], q))
	}
	return median(qs)
}
