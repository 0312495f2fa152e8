package cache

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/stats"
)

func TestNewBankedValidation(t *testing.T) {
	cfg := TableIL2PerCore()
	if _, err := NewBanked(cfg, 0); err == nil {
		t.Error("zero banks should be rejected")
	}
	if _, err := NewBanked(cfg, 3); err == nil {
		t.Error("non-power-of-two banks should be rejected")
	}
	b, err := NewBanked(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Banks() != 4 {
		t.Errorf("Banks = %d", b.Banks())
	}
}

func TestBankedInterleaving(t *testing.T) {
	b, err := NewBanked(Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive blocks round-robin across banks.
	for i := 0; i < 8; i++ {
		want := i % 4
		if got := b.BankFor(uint64(i * 64)); got != want {
			t.Errorf("BankFor(block %d) = %d, want %d", i, got, want)
		}
	}
	// Same block, any offset: same bank.
	if b.BankFor(0x40) != b.BankFor(0x7F) {
		t.Error("offsets within a block must map to one bank")
	}
}

func TestBankedStatsAggregate(t *testing.T) {
	b, err := NewBanked(Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Access(uint64(i * 64))
	}
	for i := 0; i < 10; i++ {
		b.Access(uint64(i * 64))
	}
	s := b.Stats()
	if s.Accesses != 20 {
		t.Errorf("accesses = %d, want 20", s.Accesses)
	}
	if s.Misses != 10 || s.Hits != 10 {
		t.Errorf("stats = %+v, want 10 hits and 10 misses", s)
	}
}

func newTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	l1i := mustCache(t, TableIL1())
	l1d := mustCache(t, TableIL1())
	l2 := mustCache(t, TableIL2PerCore())
	h, err := NewHierarchy(l1i, l1d, l2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(nil, nil, nil); err == nil {
		t.Error("nil levels should be rejected")
	}
}

// level is where the per-reference walk served a reference.
type level int

const (
	inL1 level = iota
	inL2
	inMemory
)

// refAccess is the per-reference walk the hierarchy passes batch: the L1
// first, then the L2 on a miss.
func refAccess(l1 *Cache, l2 Level2, addr uint64) level {
	if l1.Access(addr) {
		return inL1
	}
	if l2.Access(addr) {
		return inL2
	}
	return inMemory
}

// served classifies a one-reference pass.
func served(l2Hits, mem int) level {
	switch {
	case mem == 1:
		return inMemory
	case l2Hits == 1:
		return inL2
	}
	return inL1
}

func TestHierarchyDataPath(t *testing.T) {
	h := newTestHierarchy(t)
	addr := uint64(0x12340)
	if r := served(h.DataPass([]uint64{addr})); r != inMemory {
		t.Errorf("cold access = %v, want memory", r)
	}
	if r := served(h.DataPass([]uint64{addr})); r != inL1 {
		t.Errorf("warm access = %v, want L1", r)
	}
	// Evict from tiny L1 by sweeping conflicting blocks; L2 retains it.
	l1sets := h.L1D.Config().Sets()
	stride := uint64(l1sets * h.L1D.Config().BlockBytes)
	for i := 1; i <= h.L1D.Config().Assoc; i++ {
		h.DataPass([]uint64{addr + uint64(i)*stride})
	}
	if r := served(h.DataPass([]uint64{addr})); r != inL2 {
		t.Errorf("post-L1-eviction access = %v, want L2", r)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := newTestHierarchy(t)
	if r := served(h.FetchPass([]uint64{0x400000})); r != inMemory {
		t.Errorf("cold fetch = %v", r)
	}
	if r := served(h.FetchPass([]uint64{0x400000})); r != inL1 {
		t.Errorf("warm fetch = %v", r)
	}
	// Fetch and Data use separate L1s.
	if r := served(h.DataPass([]uint64{0x400000})); r != inL2 {
		t.Errorf("data access to fetched block = %v, want L2", r)
	}
}

func TestHierarchySharedL2AcrossCores(t *testing.T) {
	// Two hierarchies sharing one banked L2: core 1 warms a block into L2,
	// core 2's first access then hits L2 despite a cold private L1.
	shared, err := NewBanked(TableIL2PerCore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Hierarchy {
		l1i := mustCache(t, TableIL1())
		l1d := mustCache(t, TableIL1())
		h, err := NewHierarchy(l1i, l1d, shared)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	c1, c2 := mk(), mk()
	c1.DataPass([]uint64{0x9000})
	if r := served(c2.DataPass([]uint64{0x9000})); r != inL2 {
		t.Errorf("cross-core shared access = %v, want L2", r)
	}
}

// Property: the data path never reports a deeper level than the shallowest
// cache that actually holds the block (verified with Probe before access).
func TestHierarchyLevelConsistencyProperty(t *testing.T) {
	h := newTestHierarchy(t)
	r := stats.NewRand(77)
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(1 << 20))
		inCache := h.L1D.Probe(addr)
		res := served(h.DataPass([]uint64{addr}))
		if inCache && res != inL1 {
			t.Fatalf("block in L1 reported as %v", res)
		}
		if !inCache && res == inL1 {
			t.Fatal("L1 hit reported for absent block")
		}
	}
}
