// Package stats provides the statistical plumbing the evaluation needs:
// online (Welford) summaries, exact sample percentiles for tail analysis
// (the paper quotes 99th-percentile response times over 1000 runs), and
// normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates moments online using Welford's algorithm. The zero
// value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddAll folds a batch of observations into the summary.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Sum returns n·mean, the running total.
func (s *Summary) Sum() float64 { return float64(s.n) * s.mean }

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval around the mean (0 for fewer than two observations).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// Merge folds another summary into this one (parallel Welford merge).
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Percentile returns the p-th percentile (p in [0,100]) of the samples using
// linear interpolation between closest ranks. It panics on an empty slice or
// out-of-range p. The input is not modified.
//
// Cost: every call copies the samples and sorts the copy — O(n) extra memory
// and O(n log n) time. Callers that need several quantiles of the SAME
// sample set must use Percentiles (or PercentilesOK), which sorts once for
// all of them; calling Percentile k times re-sorts k times.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		panic("stats: Percentile of empty sample set")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// Percentiles returns several percentiles in one pass — one copy and one
// sort amortized over all requested quantiles, the cheap way to extract a
// p50/p95/p99 profile from one sample set. The input is not modified.
func Percentiles(samples []float64, ps ...float64) []float64 {
	if len(samples) == 0 {
		panic("stats: Percentiles of empty sample set")
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// PercentileOK is the non-panicking Percentile: it reports ok = false (and
// value 0) for an empty sample set or a p outside [0,100], so callers on
// paths where no sample may exist — short horizons, long warmups, total
// buffer loss — can degrade gracefully instead of crashing.
func PercentileOK(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 || p < 0 || p > 100 {
		return 0, false
	}
	return Percentile(samples, p), true
}

// PercentilesOK is the non-panicking Percentiles: ok = false on an empty
// sample set or any out-of-range p. Like Percentiles it sorts the sample
// set once for all requested quantiles.
func PercentilesOK(samples []float64, ps ...float64) ([]float64, bool) {
	if len(samples) == 0 {
		return nil, false
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, false
		}
	}
	return Percentiles(samples, ps...), true
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// EnhancementRatio returns (baseline − improved) / baseline, the paper's
// improvement metric, e.g. (W_CGA − W_RCKK)/W_CGA. It returns 0 when the
// baseline is 0.
func EnhancementRatio(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - improved) / baseline
}
