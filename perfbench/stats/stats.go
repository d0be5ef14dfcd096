// Package stats holds the benchmark's aggregation rules: nearest-rank
// percentiles, the tail rule (the highest whole percentile with at least ten
// samples beyond it), and per-instance minima across passes.
//
// A failed or refused request is recorded as +Inf, so it counts as missing
// every latency limit: it sorts above every real sample and drags any
// percentile it reaches to +Inf.
package stats

import (
	"math"
	"sort"
)

// MinBeyond is how many samples the tail rule leaves beyond the tail.
const MinBeyond = 10

// Missed is the value recorded for a request that failed or was refused.
var Missed = math.Inf(1)

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted: the
// smallest sample with at least q·n samples at or below it. It returns NaN
// for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// A small epsilon keeps q·n from rounding up past an exact rank (0.9·100
	// is 90.00000000000001 in floating point).
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// TailPercentile is the highest whole percentile that leaves at least
// MinBeyond of n samples above it under nearest-rank, never below the
// median. With fewer than 2·MinBeyond samples it falls back to 50.
func TailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p)*float64(n)/100 - 1e-9))
		if n-rank >= MinBeyond {
			return p
		}
	}
	return 50
}

// Summary is a latency distribution reduced to what the benchmark reports.
type Summary struct {
	N       int     // samples
	P50     float64 // median
	TailPct int     // percentile chosen by TailPercentile
	Tail    float64 // value at TailPct
	Missed  int     // samples recorded as Missed
}

// Summarize sorts a copy of xs and reports its median and tail.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: len(s), TailPct: TailPercentile(len(s))}
	for _, x := range s {
		if math.IsInf(x, 1) {
			out.Missed++
		}
	}
	out.P50 = Quantile(s, 0.5)
	out.Tail = Quantile(s, float64(out.TailPct)/100)
	return out
}

// Median is the nearest-rank median of xs (NaN when empty).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// PerInstanceBest reduces repeated samples of each instance to their
// minimum, or to Missed if any sample is Missed. Interference from the rest
// of the host only ever adds time to a run, and on a shared host it comes
// and goes within seconds, so an instance's fastest pass is the steadiest
// estimate of the work the program did on it: across processes on the
// reference host the median over instances of per-instance minima moved
// half as much as that of per-instance medians. A failure on any pass
// still counts, so a minimum cannot hide one. Instances are returned in key
// order.
func PerInstanceBest(samples map[int][]float64) []float64 {
	keys := make([]int, 0, len(samples))
	for k := range samples {
		if len(samples[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		best := Missed
		for _, x := range samples[k] {
			if math.IsInf(x, 1) {
				best = Missed
				break
			}
			best = math.Min(best, x)
		}
		out[i] = best
	}
	return out
}
