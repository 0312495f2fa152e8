package cache

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/stats"
)

// encodeCache returns c's snapshot bytes.
func encodeCache(c *Cache) []byte {
	e := snapshot.NewEncoder()
	c.Snapshot(e)
	return append([]byte(nil), e.Bytes()...)
}

// TestRestoreRejectsCorruptLRUOrder: fills take ways in order, so a set's
// first size[s] order nibbles name ways 0..size[s]-1 once each. A body whose
// order word names a way past the associativity, or one way twice, is a
// state no cache reaches; Restore must refuse it with a shape error rather
// than leave the next miss to evict from a way the set does not have. The
// cache is four-way: two-way caches keep their tags in MRU order and have
// no order word.
func TestRestoreRejectsCorruptLRUOrder(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64, LatencyCycles: 1}
	src := mustCache(t, cfg)
	// Two passes over twice the capacity fill every set.
	for a := uint64(0); a < 2*uint64(cfg.SizeBytes); a += uint64(cfg.BlockBytes) {
		src.Access(a)
	}
	last := len(src.order) - 1
	if src.size[last] != 4 {
		t.Fatalf("last set holds %d ways, want 4", src.size[last])
	}
	good := src.order[last]
	for name, bad := range map[string]uint64{
		"way past the associativity": good&^0xf0 | 15<<4,
		"way named twice":            good&^0xf0 | (good&0xf)<<4,
	} {
		src.order[last] = bad
		err := mustCache(t, cfg).Restore(snapshot.NewDecoder(encodeCache(src)))
		if err == nil {
			t.Errorf("%s: order word %#x restored without error", name, bad)
		} else if !errors.Is(err, snapshot.ErrShape) {
			t.Errorf("%s: want a shape error, got %v", name, err)
		}
	}

	// The intact body restores, and the restored cache keeps evicting.
	src.order[last] = good
	dst := mustCache(t, cfg)
	if err := dst.Restore(snapshot.NewDecoder(encodeCache(src))); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 2*uint64(cfg.SizeBytes); a += uint64(cfg.BlockBytes) {
		if got, want := dst.Access(a+4*uint64(cfg.SizeBytes)), src.Access(a+4*uint64(cfg.SizeBytes)); got != want {
			t.Fatalf("restored cache diverged at %#x", a)
		}
	}
	if dst.Stats() != src.Stats() {
		t.Fatalf("restored cache counters %+v, source %+v", dst.Stats(), src.Stats())
	}
}

// TestRestoreRebuildsSignatures: the body carries no signature words, so a
// restored packed cache rebuilds them from its tags, and a tag in a way past
// a set's fill count, which no cache reaches, is refused.
func TestRestoreRebuildsSignatures(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 1024, Assoc: 16, BlockBytes: 64}
	src := mustCache(t, cfg)
	r := stats.NewRand(3)
	for i := 0; i < 40; i++ { // about 10 lines in each of the 4 sets
		src.Access(r.Uint64() % (1 << 14))
	}
	dst := mustCache(t, cfg)
	if err := dst.Restore(snapshot.NewDecoder(encodeCache(src))); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst.sigs, src.sigs) {
		t.Fatal("restored signature words differ from the source's")
	}

	set := slices.IndexFunc(src.size, func(n int32) bool { return n < 16 })
	if set < 0 {
		t.Fatal("no partly filled set")
	}
	src.tags[set*16+15] = 0x2a
	err := mustCache(t, cfg).Restore(snapshot.NewDecoder(encodeCache(src)))
	if !errors.Is(err, snapshot.ErrShape) {
		t.Errorf("tag in an empty way: want a shape error, got %v", err)
	}
}

// TestRestorePrefetchMarks: prefetch marks travel only once a line has been
// marked, and a body without them clears the marks of the cache it is
// restored into.
func TestRestorePrefetchMarks(t *testing.T) {
	for _, assoc := range []int{2, 16} {
		cfg := Config{SizeBytes: 4 * assoc * 64, Assoc: assoc, BlockBytes: 64}
		clean, marked := mustCache(t, cfg), mustCache(t, cfg)
		for a := uint64(0); a < 8*64; a += 64 {
			clean.Access(a)
			marked.Access(a)
		}
		marked.Fill(9 * 64)
		if len(encodeCache(marked)) != len(encodeCache(clean))+4+8*len(marked.pref) {
			t.Errorf("%d-way: marked body is not the clean body plus the prefetch words", assoc)
		}
		dst := mustCache(t, cfg)
		if err := dst.Restore(snapshot.NewDecoder(encodeCache(marked))); err != nil {
			t.Fatal(err)
		}
		if !dst.wasPrefetched(9*64) || !bytes.Equal(encodeCache(dst), encodeCache(marked)) {
			t.Errorf("%d-way: prefetch mark lost in the round trip", assoc)
		}
		if err := dst.Restore(snapshot.NewDecoder(encodeCache(clean))); err != nil {
			t.Fatal(err)
		}
		if dst.wasPrefetched(9*64) || slices.ContainsFunc(dst.pref, func(w uint64) bool { return w != 0 }) {
			t.Errorf("%d-way: restoring a body without marks left marks behind", assoc)
		}
	}
}
