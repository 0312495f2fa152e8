package workload

import "math/bits"

// divisor computes exact 64-bit remainders by a fixed divisor without a
// hardware divide, using the 128-bit reciprocal technique of Lemire, Kaser
// and Kurz ("Faster remainders when the divisor is a constant"): with
// M = ceil(2^128 / d), x mod d = floor(((x*M) mod 2^128) * d / 2^128) for
// every x. The address generators draw remainders per sampled address, and
// the 64-bit divide in `%` is by far the most expensive instruction in that
// loop; three multiplies replace it. Divisors are invariant per generator
// (hot-set and code blocks) or per phase (cold-span blocks), so the setup
// divide amortizes over thousands of draws.
type divisor struct {
	d        uint64
	mHi, mLo uint64 // ceil(2^128 / d), little-endian halves
}

// newDivisor prepares the reciprocal for d. d must be non-zero.
func newDivisor(d uint64) divisor {
	if d == 0 {
		panic("workload: zero divisor")
	}
	// M = floor((2^128 - 1) / d) + 1, computed as a 128/64 long division.
	hi := ^uint64(0) / d
	lo, _ := bits.Div64(^uint64(0)%d, ^uint64(0), d)
	lo++
	if lo == 0 {
		hi++ // carry; for d == 1, M wraps to 0 mod 2^128 and mod returns 0
	}
	return divisor{d: d, mHi: hi, mLo: lo}
}

// mod returns x % v.d.
func (v divisor) mod(x uint64) uint64 {
	// low 128 bits of x*M
	pHi, pLo := bits.Mul64(x, v.mLo)
	pHi += x * v.mHi
	// floor((pHi:pLo * d) / 2^128): the top word of the 192-bit product
	hh, hl := bits.Mul64(pHi, v.d)
	carry, _ := bits.Mul64(pLo, v.d)
	_, c := bits.Add64(hl, carry, 0)
	return hh + c
}
