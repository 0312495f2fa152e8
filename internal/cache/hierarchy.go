package cache

import (
	"errors"
	"fmt"
)

// Banked is a last-level cache split into address-interleaved banks, as in
// the paper's layout (Figure 1: shared last-level cache banks in the middle
// of the die). Banking is by block address, so consecutive blocks map to
// different banks.
type Banked struct {
	banks     []*Cache
	blockBits uint
}

// NewBanked builds n identical banks from cfg. n must be a power of two.
func NewBanked(cfg Config, n int) (*Banked, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("cache: bank count %d not a positive power of two", n)
	}
	b := &Banked{banks: make([]*Cache, n)}
	for i := range b.banks {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		b.banks[i] = c
	}
	b.blockBits = b.banks[0].blockBits
	return b, nil
}

// Banks returns the number of banks.
func (b *Banked) Banks() int { return len(b.banks) }

// BankFor returns the bank index addr maps to.
func (b *Banked) BankFor(addr uint64) int {
	return int((addr >> b.blockBits) & uint64(len(b.banks)-1))
}

// Access routes the access to its bank.
func (b *Banked) Access(addr uint64) bool {
	return b.banks[b.BankFor(addr)].Access(addr)
}

// Stats sums counters across banks.
func (b *Banked) Stats() Stats {
	var s Stats
	for _, bank := range b.banks {
		bs := bank.Stats()
		s.Accesses += bs.Accesses
		s.Hits += bs.Hits
		s.Misses += bs.Misses
		s.Evictions += bs.Evictions
	}
	return s
}

// Hierarchy is one core's view of the memory system: private L1I and L1D,
// and a (possibly shared) L2. The L2 is abstracted behind the Level2
// interface so that a private slice and a shared banked cache are
// interchangeable.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  Level2
}

// Level2 is the minimal interface the hierarchy needs from its second level.
type Level2 interface {
	Access(addr uint64) bool
	Stats() Stats
}

// NewHierarchy wires a hierarchy after validating the pieces exist.
func NewHierarchy(l1i, l1d *Cache, l2 Level2) (*Hierarchy, error) {
	if l1i == nil || l1d == nil || l2 == nil {
		return nil, errors.New("cache: hierarchy needs all three levels")
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2}, nil
}

// DataPass pushes one interval's data references through the hierarchy:
// all of them through the L1D in one batch, then the L1D misses, in order,
// through the L2. It returns how many the L2 served and how many went to
// memory. The L1D never consults the L2, so both caches end as the
// per-reference walk (L1D, then L2 on a miss) leaves them. addrs is
// overwritten: its prefix ends up holding the L1D misses.
func (h *Hierarchy) DataPass(addrs []uint64) (l2Hits, mem int) { return h.pass(h.L1D, addrs) }

// FetchPass is DataPass for instruction fetches, through the L1I.
func (h *Hierarchy) FetchPass(addrs []uint64) (l2Hits, mem int) { return h.pass(h.L1I, addrs) }

func (h *Hierarchy) pass(l1 *Cache, addrs []uint64) (l2Hits, mem int) {
	for _, a := range l1.AccessBatch(addrs) {
		if h.L2.Access(a) {
			l2Hits++
		} else {
			mem++
		}
	}
	return l2Hits, mem
}

// TableIL1 returns the paper's L1 configuration: 16 KB, 2-way, 64 B blocks,
// 1-cycle access (Table I).
func TableIL1() Config {
	return Config{SizeBytes: 16 * 1024, Assoc: 2, BlockBytes: 64, LatencyCycles: 1}
}

// TableIL2PerCore returns the paper's per-core share of the shared L2:
// 512 KB, 16-way, 64 B blocks, 10-cycle access (Table I).
func TableIL2PerCore() Config {
	return Config{SizeBytes: 512 * 1024, Assoc: 16, BlockBytes: 64, LatencyCycles: 10}
}
