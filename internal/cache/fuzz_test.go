package cache

import (
	"bytes"
	"slices"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
)

// fuzzBatchMax caps a batch so that the reference index, carried in an
// address's offset within its 64-byte block, names every reference of a
// batch uniquely: equal miss lists then mean equal outcomes reference by
// reference.
const fuzzBatchMax = 64

// fuzzBatch takes the next batch off data: each byte is one reference and
// 0xff ends the batch early. A byte picks one of 64 blocks (so sets of a
// small cache conflict) and, with its top two bits, one of four tag groups
// 1<<12 blocks apart, whose tags share their signature byte. Block 0, tag 0
// of set 0, is reachable, the value an empty way holds.
func fuzzBatch(data []byte) (addrs []uint64, rest []byte) {
	for len(data) > 0 && len(addrs) < fuzzBatchMax {
		b := data[0]
		data = data[1:]
		if b == 0xff {
			break
		}
		block := uint64(b&0x3f) | uint64(b>>6)<<12
		addrs = append(addrs, block*64+uint64(len(addrs)))
	}
	return addrs, data
}

// FuzzAccessBatch drives AccessBatch over a fuzzer-chosen associativity
// (1, 2, 4, 16 or 32 ways, so the pair loop, the packed order-word layout
// and the move-to-front layout all run), 1 to 8 sets, batch boundaries and
// conflicting addresses, and holds it to three references after every
// batch: the move-to-front LRU model refLRU (every hit and miss, the misses
// in order, and the counters, evictions included), per-address Access on a
// twin cache (every snapshot byte), and a cache restored from the batched
// one's snapshot after a fuzzer-chosen batch and continued from there (the
// uninterrupted run).
func FuzzAccessBatch(f *testing.F) {
	f.Add([]byte{1, 0x00, 1, 2, 1, 1, 2, 3, 2, 0x42, 3, 0x42})
	f.Add([]byte{1, 0x05, 0, 8, 0, 16, 8, 0, 24, 0xff, 0, 0x40, 0, 0x80, 0x40, 0xc0, 0})
	f.Add([]byte{0, 0x01, 1, 2, 1, 3, 0, 1, 0xff, 0x41, 1, 0x41})
	f.Add([]byte{2, 0x0a, 0, 2, 4, 6, 8, 10, 0, 4, 8, 0xff, 12, 14, 16, 0, 0xff, 2, 18})
	f.Add([]byte{3, 0x00, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 0, 0x40, 0x80})
	f.Add([]byte{4, 0x06, 0, 1, 2, 3, 0x40, 0x41, 0x42, 0xff, 3, 2, 1, 0, 0xc0, 0xc1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Inputs longer than four full batches are skipped: the fuzzer
		// minimizes every new input it keeps, and long ones make that slow.
		if len(data) < 2 || len(data) > 2+4*fuzzBatchMax {
			return
		}
		assoc := []int{1, 2, 4, 16, 32}[int(data[0])%5]
		sets := 1 << (data[1] & 3)
		resumeAt := int(data[1] >> 2)
		cfg := Config{SizeBytes: sets * assoc * 64, Assoc: assoc, BlockBytes: 64}
		batched, twin := mustCache(t, cfg), mustCache(t, cfg)
		ref := newRefLRU(cfg)
		var resumed *Cache
		for batch, rest := 0, data[2:]; len(rest) > 0; batch++ {
			var addrs []uint64
			addrs, rest = fuzzBatch(rest)
			var want []uint64
			for _, a := range addrs {
				if !ref.Access(a) {
					want = append(want, a)
				}
				twin.Access(a)
			}
			got := batched.AccessBatch(slices.Clone(addrs))
			if !slices.Equal(got, want) {
				t.Fatalf("%d-way, %d sets, batch %d %#x: misses %#x, LRU model %#x", assoc, sets, batch, addrs, got, want)
			}
			if batched.Stats() != ref.stats {
				t.Fatalf("%d-way, %d sets, batch %d: counters %+v, LRU model %+v", assoc, sets, batch, batched.Stats(), ref.stats)
			}
			snap := encodeCache(batched)
			if !bytes.Equal(snap, encodeCache(twin)) {
				t.Fatalf("%d-way, %d sets, batch %d: snapshot bytes differ from per-address Access", assoc, sets, batch)
			}
			if resumed != nil {
				if got := resumed.AccessBatch(slices.Clone(addrs)); !slices.Equal(got, want) {
					t.Fatalf("%d-way, %d sets, batch %d: restored cache missed %#x, uninterrupted %#x", assoc, sets, batch, got, want)
				}
				if !bytes.Equal(encodeCache(resumed), snap) {
					t.Fatalf("%d-way, %d sets, batch %d: restored cache's snapshot differs from the uninterrupted one", assoc, sets, batch)
				}
			}
			if batch == resumeAt {
				resumed = mustCache(t, cfg)
				if err := resumed.Restore(snapshot.NewDecoder(snap)); err != nil {
					t.Fatalf("%d-way, %d sets, batch %d: restore: %v", assoc, sets, batch, err)
				}
			}
		}
	})
}
