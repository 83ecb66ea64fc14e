// Package xrand provides deterministic pseudo-random sources and the
// heavy-tailed distributions used throughout the cloudscope simulators.
//
// Every generator in cloudscope is seeded explicitly so that worlds,
// traces, and measurements are reproducible bit-for-bit across runs.
// The package serves math/rand's distributions from a splittable
// source (so independent subsystems draw from independent streams):
// New reproduces math/rand's default stream for every seed, but seeds
// in O(1) instead of building a 4.9 KB table per stream, so code can
// afford one stream per item. It adds the distributions the paper's
// workloads require: Zipf-ranked popularity, Pareto and log-normal flow
// sizes, and weighted categorical choice.
package xrand

import (
	"math"
	"math/rand"
	"sort"
)

// Rand is a deterministic random source. The zero value is not usable;
// construct with New or Split.
type Rand struct {
	r    *rand.Rand
	seed int64
}

// New returns a Rand seeded with seed. Its stream is exactly
// rand.New(rand.NewSource(seed))'s, draw for draw, but seeding is O(1)
// and allocates no state table: the source computes the first 273 draws
// straight from the seed and builds math/rand's 607-word register only
// if a 274th is drawn (see lfibSource).
func New(seed int64) *Rand {
	src := &lfibSource{}
	src.Seed(seed)
	return &Rand{r: rand.New(src), seed: seed}
}

// Split derives an independent stream identified by label. The derived
// stream depends only on the parent's seed and the label — never on how
// much of the parent stream has been consumed — so subsystem determinism
// is independent of call order. Splitting the same parent with the same
// label twice yields identical streams.
func (rn *Rand) Split(label string) *Rand {
	return SplitSeeded(rn.seed, label)
}

// SplitSeeded derives an independent stream from an explicit parent seed
// and a label, without consuming parent state.
func SplitSeeded(seed int64, label string) *Rand {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(int64(h))
}

// SubSeed derives the seed of the independent stream identified by
// (label, n) under a parent seed, without allocating: the label hash
// SplitSeeded uses with the integer mixed in afterwards, so hot loops
// can give every item its own stream (Reseed into a reused Rand)
// instead of formatting a label string per item.
func SubSeed(seed int64, label string, n int) int64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= uint64(n)
	h *= 1099511628211
	h ^= h >> 29
	return int64(h)
}

// Reseed rewinds the generator onto a fresh stream for seed, reusing
// the underlying source — the alloc-free counterpart of constructing a
// new Rand for code that needs one short-lived stream per item. It is
// O(1) for both constructors; which one a loop uses decides only which
// stream family it draws (see NewFast).
func (rn *Rand) Reseed(seed int64) {
	rn.seed = seed
	rn.r.Seed(seed)
}

// fastSource is a splitmix64 rand.Source64: full 64-bit output period
// 2^64, passes the usual avalanche tests, and seeding is a single word
// write.
type fastSource struct{ state uint64 }

func (s *fastSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *fastSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *fastSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewFast returns a Rand on a splitmix64 source behind the same
// math/rand adapter (so every distribution helper — NormFloat64, Perm,
// Shuffle — behaves identically in kind). Streams from NewFast and New
// differ for the same seed; a subsystem must pick one constructor and
// stay with it. Seeding New is O(1) too; NewFast stays because the
// capture generator's per-flow streams are drawn from it and the
// capture pcap goldens pin those streams.
func NewFast(seed int64) *Rand {
	return &Rand{r: rand.New(&fastSource{state: uint64(seed)}), seed: seed}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (rn *Rand) Intn(n int) int { return rn.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (rn *Rand) Int63() int64 { return rn.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (rn *Rand) Float64() float64 { return rn.r.Float64() }

// NormFloat64 returns a standard normal variate.
func (rn *Rand) NormFloat64() float64 { return rn.r.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (rn *Rand) ExpFloat64() float64 { return rn.r.ExpFloat64() }

// Bool returns true with probability p.
func (rn *Rand) Bool(p float64) bool { return rn.r.Float64() < p }

// Range returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (rn *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + rn.r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (rn *Rand) Perm(n int) []int { return rn.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (rn *Rand) Shuffle(n int, swap func(i, j int)) { rn.r.Shuffle(n, swap) }

// Pareto returns a Pareto(alpha, xmin) variate: heavy-tailed sizes with
// P(X > x) = (xmin/x)^alpha for x >= xmin.
func (rn *Rand) Pareto(alpha, xmin float64) float64 {
	u := rn.r.Float64()
	for u == 0 {
		u = rn.r.Float64()
	}
	return xmin / math.Pow(u, 1/alpha)
}

// LogNormal returns exp(N(mu, sigma)).
func (rn *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rn.r.NormFloat64())
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF once; use NewZipf for repeated
// draws over the same support.
type Zipf struct {
	cdf []float64
	rn  *Rand
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(rn *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rn: rn}
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.rn.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// NextR draws a rank using an explicit source, letting one precomputed
// CDF be shared across many independent streams.
func (z *Zipf) NextR(rn *Rand) int {
	u := rn.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N returns the size of the sampler's support.
func (z *Zipf) N() int { return len(z.cdf) }

// Weighted selects index i with probability weights[i]/sum(weights).
// Weights must be non-negative with a positive sum.
type Weighted struct {
	cdf []float64
	rn  *Rand
}

// NewWeighted builds a categorical sampler from weights.
func NewWeighted(rn *Rand, weights []float64) *Weighted {
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("xrand: weights sum to zero")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{cdf: cdf, rn: rn}
}

// Next returns the next weighted index.
func (w *Weighted) Next() int {
	return w.NextR(w.rn)
}

// NextR draws an index using an explicit source, letting one
// precomputed CDF be shared across many independent streams.
func (w *Weighted) NextR(rn *Rand) int {
	u := rn.Float64()
	i := sort.SearchFloat64s(w.cdf, u)
	if i >= len(w.cdf) {
		i = len(w.cdf) - 1
	}
	return i
}

// Pick returns one element of choices selected by weights, drawing one
// Float64 from rn. It panics if lengths differ or the weights are
// invalid for NewWeighted. It allocates nothing, yet returns the index
// NewWeighted(rn, weights).Next() would: the same running sums divided
// by the same total, searched for the first one at or above the draw.
func Pick[T any](rn *Rand, choices []T, weights []float64) T {
	if len(choices) != len(weights) {
		panic("xrand: Pick length mismatch")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("xrand: weights sum to zero")
	}
	u := rn.Float64()
	run := 0.0
	for i, w := range weights {
		run += w
		if run/sum >= u {
			return choices[i]
		}
	}
	return choices[len(choices)-1]
}

// PickUniform returns a uniformly chosen element of choices.
func PickUniform[T any](rn *Rand, choices []T) T {
	return choices[rn.Intn(len(choices))]
}

// --- Stateless hashing -------------------------------------------------
//
// The helpers below turn arbitrary keys into well-distributed uint64
// hashes and uniform [0,1) fractions without any generator state. They
// back the per-event fault draws (packet loss, chaos scenarios): a
// verdict derived purely from the event's identity is the same no
// matter which worker evaluates it or in what order, which is what
// keeps fault-injected runs byte-identical across worker counts.

// mix64 is the splitmix64 finalizer: a cheap avalanche so related
// inputs (consecutive indexes, nearby IPs) land far apart.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 folds the values into one well-distributed hash. Hash64() is a
// fixed non-zero constant; every appended value permutes the state.
func Hash64(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h = mix64(h ^ v)
	}
	return h
}

// HashString folds s into seed, FNV-style, and finalizes.
func HashString(seed uint64, s string) uint64 {
	h := seed ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// HashBytes folds b into seed, FNV-style, and finalizes.
func HashBytes(seed uint64, b []byte) uint64 {
	h := seed ^ 14695981039346656037
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// Frac maps a hash to a uniform float64 in [0, 1).
func Frac(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
