// Package rng provides deterministic, seedable random streams and the
// distribution samplers used across nfvchain: exponential service times and
// inter-arrivals, log-normal inter-arrivals, and the cumulative weighted
// choice at the heart of the BFDSU placement algorithm.
//
// Every consumer takes a *Stream explicitly — there are no package-level
// globals — so experiments, tests, and benchmarks replay exactly.
package rng

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random stream. The zero value is not usable;
// construct with New or Derive.
type Stream struct {
	r   *rand.Rand
	pcg *rand.PCG
}

// New returns a stream seeded with the given seed.
func New(seed uint64) *Stream {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Stream{r: rand.New(pcg), pcg: pcg}
}

// Derive returns an independent child stream identified by a label. The same
// (parent seed, label) pair always yields the same child, which lets each
// experiment component own a private stream without cross-contamination.
func Derive(seed uint64, label string) *Stream {
	h := fnv64(label)
	pcg := rand.NewPCG(seed^h, h*0x2545f4914f6cdd1d+seed)
	return &Stream{r: rand.New(pcg), pcg: pcg}
}

// Reseed rewinds the stream in place to the exact state a fresh
// Derive(seed, label) would start in, without allocating. The label is a
// byte slice so callers sweeping many trials can rebuild labels in a reused
// buffer; Derive-constructed and Reseed-rewound streams are bit-identical.
func (s *Stream) Reseed(seed uint64, label []byte) {
	h := fnv64(label)
	s.pcg.Seed(seed^h, h*0x2545f4914f6cdd1d+seed)
}

// fnv64 hashes a label with FNV-1a.
func fnv64[T ~string | ~[]byte](s T) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform int in [0,n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Uniform returns a uniform value in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// UniformInt returns a uniform int in [lo,hi] inclusive. It panics when
// hi < lo.
func (s *Stream) UniformInt(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: UniformInt bounds inverted: [%d,%d]", lo, hi))
	}
	return lo + s.r.IntN(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given rate
// parameter (mean 1/rate). It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exp rate %v must be positive", rate))
	}
	return s.r.ExpFloat64() / rate
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal (mu, sigma). Used for the heavy-tailed
// flow inter-arrival mode of the workload generator.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.r.NormFloat64()*sigma + mu)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.r.Float64() < p
}

// WeightedIndex draws an index with probability proportional to weights[i],
// using the cumulative-bound scan described in the paper's BFDSU procedure:
// draw ξ uniform in [0, Σw) and return the first k with ξ < Σ_{i≤k} w_i.
// It returns -1 when the weights are empty or sum to a non-positive value.
func (s *Stream) WeightedIndex(weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("rng: negative weight %v", w))
		}
		sum += w
	}
	if len(weights) == 0 || sum <= 0 {
		return -1
	}
	xi := s.r.Float64() * sum
	var bound float64
	for i, w := range weights {
		bound += w
		if xi < bound {
			return i
		}
	}
	return len(weights) - 1 // floating-point edge: ξ landed on Σw
}

// Shuffle permutes the first n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	s.r.Shuffle(n, swap)
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int {
	return s.r.Perm(n)
}
