// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component in this repository (graph
// generators, seed selection, tie-breaking). Determinism across runs and Go
// versions matters for reproducible experiments, so we implement the
// generator ourselves instead of relying on math/rand's unspecified internal
// algorithm.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
// the standard recommendation for initialising xoshiro state. Streams can be
// split with Split to derive statistically independent child generators, which
// lets parallel components share one master seed without sharing state.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; derive per-goroutine generators with Split instead of
// sharing one instance.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given value. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a child generator whose stream is independent of the parent's
// subsequent output. The parent advances by two outputs.
func (r *RNG) Split() *RNG {
	// Mix two outputs through SplitMix64 so the child state does not share
	// linear structure with the parent state.
	seed := r.Uint64()
	seed ^= rotl(r.Uint64(), 31)
	return New(seed)
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0,
// mirroring math/rand's contract; callers control n and a non-positive bound
// is always a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn bound must be positive")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	tLo := t & mask32
	tHi := t >> 32
	t = aLo*bHi + tLo
	lo |= (t & mask32) << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. It is the
// skip length used by sparse graph generators to jump between present edges
// in O(1) expected time per edge. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0): Float64 can return exactly 0.
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	g := math.Floor(math.Log(u) / math.Log1p(-p))
	if g < 0 {
		return 0
	}
	if g > float64(math.MaxInt64/2) {
		return math.MaxInt64 / 2
	}
	return int(g)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
