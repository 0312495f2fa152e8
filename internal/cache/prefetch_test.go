package cache

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/stats"
)

func newPrefetched(t *testing.T, degree int) (*StreamPrefetcher, *Cache) {
	t.Helper()
	inner := mustCache(t, Config{SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 64, LatencyCycles: 10})
	p, err := NewStreamPrefetcher(inner, degree, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p, inner
}

func TestNewStreamPrefetcherValidation(t *testing.T) {
	inner := mustCache(t, Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64})
	if _, err := NewStreamPrefetcher(nil, 2, 8); err == nil {
		t.Error("nil inner should be rejected")
	}
	if _, err := NewStreamPrefetcher(inner, 0, 8); err == nil {
		t.Error("zero degree should be rejected")
	}
	if _, err := NewStreamPrefetcher(inner, 2, 0); err == nil {
		t.Error("zero table should be rejected")
	}
}

// A block-strided sweep misses every block without prefetching but mostly
// hits with a stream prefetcher ahead of it.
func TestStreamPrefetcherCoversSequentialSweep(t *testing.T) {
	plain := mustCache(t, Config{SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 64, LatencyCycles: 10})
	pref, _ := newPrefetched(t, 4)
	const blocks = 512
	for i := 0; i < blocks; i++ {
		addr := uint64(i) * 64
		plain.Access(addr)
		pref.Access(addr)
	}
	plainMiss := plain.Stats().MissRate()
	prefMiss := pref.Stats().MissRate()
	if plainMiss < 0.99 {
		t.Fatalf("plain sweep should miss everything, got %.2f", plainMiss)
	}
	if prefMiss > 0.35 {
		t.Errorf("prefetched sweep miss rate = %.2f, want mostly hits", prefMiss)
	}
	if pref.Issued() == 0 || pref.Useful() == 0 {
		t.Errorf("prefetcher idle: issued=%d useful=%d", pref.Issued(), pref.Useful())
	}
	if pref.Useful() > pref.Issued() {
		t.Error("useful prefetches cannot exceed issued")
	}
}

// Random traffic must not trigger streams (no pollution).
func TestStreamPrefetcherIgnoresRandomTraffic(t *testing.T) {
	pref, _ := newPrefetched(t, 4)
	r := stats.NewRand(7)
	for i := 0; i < 2000; i++ {
		pref.Access(uint64(r.Intn(1<<20)) &^ 63 * 7) // scattered blocks
	}
	if float64(pref.Issued()) > 200 {
		t.Errorf("prefetcher issued %d fills on random traffic", pref.Issued())
	}
}

func TestFillDoesNotTouchDemandCounters(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64})
	if !c.Fill(0x100) {
		t.Fatal("fill of absent block should happen")
	}
	if c.Fill(0x100) {
		t.Error("fill of resident block should be a no-op")
	}
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 || s.Hits != 0 {
		t.Errorf("Fill perturbed demand counters: %+v", s)
	}
	if !c.Access(0x100) {
		t.Error("prefilled block should hit on demand")
	}
}

func TestPrefetchedMarksClearedByEviction(t *testing.T) {
	// 2-way, 8-set cache: three conflicting fills evict the first.
	c := mustCache(t, Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64})
	c.Fill(0)
	c.Fill(512)
	c.Fill(1024) // evicts block 0
	if c.wasPrefetched(0) {
		t.Error("evicted block kept its prefetched mark")
	}
	if !c.wasPrefetched(512) || !c.wasPrefetched(1024) {
		t.Error("resident prefetched blocks lost their marks")
	}
}

func TestPrefetcherImplementsLevel2(t *testing.T) {
	pref, _ := newPrefetched(t, 2)
	var l2 Level2 = pref
	l2.Access(0x40)
	if l2.Stats().Accesses != 1 {
		t.Error("Level2 stats not forwarded")
	}
	l2.Access(0x40)
	if s := l2.Stats(); s.Accesses != 2 || s.Hits != 1 {
		t.Errorf("Level2 stats %+v after a repeat access, want 2 accesses and 1 hit", s)
	}
	if pref.Config().LatencyCycles != 10 {
		t.Error("Config not forwarded")
	}
}
