package stats

import "math"

// Rand is a small, fast, deterministic pseudo-random stream based on
// splitmix64. It is used instead of math/rand so that every stochastic
// component of the simulator can own an independent stream keyed by
// (seed, core, interval, ...) and produce identical sequences regardless of
// the order in which streams are consumed, so a run is bit-identical on
// every executor.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed. Distinct seeds yield streams
// that are statistically independent for simulation purposes.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Derive returns a new independent stream keyed by this stream's seed and the
// given keys. It does not perturb the receiver. This is the mechanism used to
// fan a single experiment seed out to per-core, per-interval streams.
func (r *Rand) Derive(keys ...uint64) *Rand {
	s := r.state
	for _, k := range keys {
		s = mix64(s ^ (k + 0x9e3779b97f4a7c15))
	}
	return &Rand{state: s}
}

// DeriveSeed mixes keys into seed and returns the resulting sub-seed.
func DeriveSeed(seed uint64, keys ...uint64) uint64 {
	s := seed
	for _, k := range keys {
		s = mix64(s ^ (k + 0x9e3779b97f4a7c15))
	}
	return s
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gamma is splitmix64's state increment: the state is a counter, so the
// i-th draw ahead is a pure function of the current state.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// Ahead returns the draw i places ahead without advancing the stream:
// Ahead(0) is what the next Uint64 call returns, Ahead(1) the call after
// it. Together with Skip it lets a loop compute every draw a step might
// consume and then advance by the number it did consume, without a branch.
func (r *Rand) Ahead(i uint64) uint64 { return mix64(r.state + (i+1)*gamma) }

// Skip advances the stream past n draws, as n Uint64 calls would.
func (r *Rand) Skip(n uint64) { r.state += n * gamma }

// BoolThreshold returns the integer form of Bool's test: Bool(p) on the
// draw u is true exactly when u>>11 < BoolThreshold(p). Float64 is
// u>>11 scaled by 2^-53 with no rounding, so Float64() < p is
// u>>11 < p·2^53, and for an integer that is u>>11 < ceil(p·2^53); p·2^53
// is itself exact. A p that is NaN or at most 0 is never met (threshold
// 0); one at least 1 always is (2^53, above every u>>11).
func BoolThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box–Muller transform.
func (r *Rand) Norm(mean, stddev float64) float64 {
	// Avoid log(0) by shifting u1 into (0, 1].
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := 1 - r.Float64()
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm fills dst with a random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
