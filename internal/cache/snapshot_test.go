package cache

import (
	"errors"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
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
// than leave the next miss to evict from a way the set does not have.
func TestRestoreRejectsCorruptLRUOrder(t *testing.T) {
	cfg := TableIL1()
	src := mustCache(t, cfg)
	// Two passes over twice the capacity fill every set.
	for a := uint64(0); a < 2*uint64(cfg.SizeBytes); a += uint64(cfg.BlockBytes) {
		src.Access(a)
	}
	last := len(src.order) - 1
	if src.size[last] != 2 {
		t.Fatalf("last set holds %d ways, want 2", src.size[last])
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
