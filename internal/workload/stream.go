package workload

import (
	"math"

	"github.com/cpm-sim/cpm/internal/stats"
)

// StreamGen generates the sampled address streams that drive the cache
// hierarchy. Data accesses mix three behaviours according to the profile:
// stride-1 sequential walks (spatial locality), accesses to a hot subset of
// the working set (temporal locality), and uniform accesses over the whole
// working set. Instruction fetches walk the code footprint sequentially with
// occasional branches.
//
// Each core owns one StreamGen; all randomness derives from the seed so
// streams are reproducible.
type StreamGen struct {
	rng     *stats.Rand
	profile Profile

	dataBase uint64 // base virtual address of the data segment
	codeBase uint64
	seqPos   uint64 // sequential walk cursor within the working set
	codePos  uint64

	// Reciprocals for the per-address uniform draws, prepared once at
	// construction (hot set, code footprint) or once per observed phase
	// multiplier (cold span), so the generator loops never execute a
	// hardware divide.
	hotDiv   divisor
	codeDiv  divisor
	coldDiv  divisor
	coldMult float64 // phase multiplier coldDiv was built for; NaN initially
}

const (
	blockBytes = 64
	// seqStride is the step of sequential walks: word-sized, so a stride-1
	// sweep touches each cache block eight times before moving on — the
	// spatial locality real streaming code exhibits.
	seqStride = 8
)

// NewStreamGen builds a generator for profile p, which must validate: the
// generator relies on the footprint bounds (hot set and code footprint at
// least one block, hot set within the working set) instead of silently
// clamping misconfigured profiles. Cores receive distinct base addresses so
// their streams never alias in a shared L2 (the applications of the paper's
// mixes do not share data).
func NewStreamGen(seed uint64, coreID int, p Profile) (*StreamGen, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &StreamGen{
		rng:     stats.NewRand(stats.DeriveSeed(seed, 0x57a7, uint64(coreID))),
		profile: p,
		// 1 TiB apart per core: disjoint address spaces.
		dataBase: uint64(coreID+1) << 40,
		codeBase: uint64(coreID+1)<<40 | 1<<36,
		hotDiv:   newDivisor(p.HotSetBytes / blockBytes),
		codeDiv:  newDivisor(p.CodeBytes / blockBytes),
		coldMult: math.NaN(), // never equal: first DataAddrs call builds coldDiv
	}, nil
}

// DataAddrs fills dst with n sampled data addresses for an interval in
// phase ph and returns it. dst is reused when it has capacity.
func (s *StreamGen) DataAddrs(n int, ph Phase, dst []uint64) []uint64 {
	dst = grow(dst, n)
	ws := s.profile.WorkingSetBytes
	if ph.MemMult != s.coldMult {
		// Cold accesses roam the working set; memory-heavier phases sweep
		// more of it. The span is fixed for the whole phase, so the
		// reciprocal survives across calls until the phase machine moves.
		blocks := uint64(float64(ws)*minf(1, ph.MemMult)) / blockBytes
		if blocks == 0 {
			blocks = 1
		}
		s.coldDiv = newDivisor(blocks)
		s.coldMult = ph.MemMult
	}
	// A sequential reference consumes one draw (the sequential test); a
	// hot or cold one three (that test, the hot test, the block). Every
	// reference computes all three from the draws ahead, selects its
	// address with masks and skips the draws it consumed, so the loop has
	// no data-dependent branch and the stream is draw-for-draw the one the
	// tests in this order would produce.
	seqT := stats.BoolThreshold(s.profile.SeqFraction)
	hotT := stats.BoolThreshold(s.profile.HotFraction)
	divs := [2]divisor{s.coldDiv, s.hotDiv}
	rng := *s.rng
	base, seqPos := s.dataBase, s.seqPos
	for i := range dst {
		seq := lessMask(rng.Ahead(0)>>11, seqT)
		hot := lessMask(rng.Ahead(1)>>11, hotT)
		block := divs[hot&1].mod(rng.Ahead(2))
		// seqPos stays below ws, so one conditional subtract is the
		// wrap-around (ws is at least one block, far above the stride).
		next := seqPos + seqStride
		next -= ws &^ lessMask(next, ws)
		seqPos = sel(seq, next, seqPos)
		dst[i] = base + sel(seq, seqPos, block*blockBytes)
		rng.Skip(3 - 2&seq)
	}
	*s.rng = rng
	s.seqPos = seqPos
	return dst
}

// lessMask returns all ones when a < b and zero otherwise; both must be
// below 2^63.
func lessMask(a, b uint64) uint64 { return uint64(int64(a-b) >> 63) }

// sel returns a where mask is all ones and b where it is zero.
func sel(mask, a, b uint64) uint64 { return b ^ (a^b)&mask }

// FetchAddrs fills dst with n sampled instruction-fetch addresses.
func (s *StreamGen) FetchAddrs(n int, dst []uint64) []uint64 {
	dst = grow(dst, n)
	rng := s.rng
	code := s.profile.CodeBytes
	for i := range dst {
		if rng.Bool(0.04) {
			// Branch to a random code block.
			s.codePos = s.codeDiv.mod(rng.Uint64()) * blockBytes
		} else {
			// codePos stays below code, so wrap-around is one subtract.
			s.codePos += blockBytes
			if s.codePos >= code {
				s.codePos -= code
			}
		}
		dst[i] = s.codeBase + s.codePos
	}
	return dst
}

func grow(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	return dst[:n]
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
