package cache

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/stats"
)

// passRig is a set of cores' hierarchies over one L2 arrangement: private
// L2s, one banked L2 shared by every core, or private prefetching L2s.
type passRig struct {
	cores  []*Hierarchy
	shared Level2 // the shared L2, nil when each core has its own
}

func newPassRig(t *testing.T, assoc int, l2kind string) *passRig {
	t.Helper()
	l1 := Config{SizeBytes: 16 * assoc * 64, Assoc: assoc, BlockBytes: 64}
	l2 := Config{SizeBytes: 64 * assoc * 64, Assoc: assoc, BlockBytes: 64}
	r := &passRig{}
	if l2kind == "banked-shared" {
		b, err := NewBanked(l2, 2)
		if err != nil {
			t.Fatal(err)
		}
		r.shared = b
	}
	for i := 0; i < 2; i++ {
		var lv Level2 = r.shared
		switch l2kind {
		case "private":
			lv = mustCache(t, l2)
		case "prefetching":
			p, err := NewStreamPrefetcher(mustCache(t, l2), 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			lv = p
		}
		h, err := NewHierarchy(mustCache(t, l1), mustCache(t, l1), lv)
		if err != nil {
			t.Fatal(err)
		}
		r.cores = append(r.cores, h)
	}
	return r
}

// state is every counter and every snapshot byte of the rig.
func (r *passRig) state() ([]Stats, []byte) {
	var st []Stats
	e := snapshot.NewEncoder()
	for _, h := range r.cores {
		st = append(st, h.L1I.Stats(), h.L1D.Stats(), h.L2.Stats())
		h.Snapshot(e, r.shared == nil)
	}
	if b, ok := r.shared.(*Banked); ok {
		b.Snapshot(e)
	}
	return st, e.Bytes()
}

// refPass is the per-reference walk a pass batches.
func refPass(l1 *Cache, l2 Level2, addrs []uint64) (l2Hits, mem int) {
	for _, a := range addrs {
		switch refAccess(l1, l2, a) {
		case inL2:
			l2Hits++
		case inMemory:
			mem++
		}
	}
	return l2Hits, mem
}

// passStream draws n addresses over a footprint a few times the L2, mixing
// sequential runs (which the prefetcher follows) with random blocks.
func passStream(r *stats.Rand, n int, base uint64) []uint64 {
	out := make([]uint64, n)
	pos := r.Uint64() % (1 << 18) &^ 7
	for i := range out {
		if r.Bool(0.5) {
			pos = (pos + 8) % (1 << 18)
		} else {
			pos = r.Uint64() % (1 << 18) &^ 7
		}
		out[i] = base + pos
	}
	return out
}

// TestPassMatchesPerAccessReference drives the batched passes and the
// per-reference walk over identical random streams, core after core, data
// then fetch, as an island samples, in 1-, 2-, 4-, 16- and 32-way (wide)
// geometries and over private, banked-shared and prefetching L2s. After
// every batch the L2 hits, memory accesses, every cache's counters and the
// snapshot bytes of the whole rig must agree.
func TestPassMatchesPerAccessReference(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 16, 32} {
		for _, l2kind := range []string{"private", "banked-shared", "prefetching"} {
			t.Run(fmt.Sprintf("%d-way/%s", assoc, l2kind), func(t *testing.T) {
				got, want := newPassRig(t, assoc, l2kind), newPassRig(t, assoc, l2kind)
				r := stats.NewRand(uint64(assoc))
				for batch := 0; batch < 40; batch++ {
					for c := range got.cores {
						base := uint64(c+1) << 40
						n := []int{0, 1, 7, 300}[batch%4] + r.Intn(64)
						data := passStream(r, n, base)
						fetch := passStream(r, n/4, base|1<<36)
						gh, gm := got.cores[c].DataPass(append([]uint64(nil), data...))
						wh, wm := refPass(want.cores[c].L1D, want.cores[c].L2, data)
						fh, fm := got.cores[c].FetchPass(append([]uint64(nil), fetch...))
						rh, rm := refPass(want.cores[c].L1I, want.cores[c].L2, fetch)
						if gh != wh || gm != wm || fh != rh || fm != rm {
							t.Fatalf("batch %d core %d: data L2 %d memory %d, fetch L2 %d memory %d; reference %d %d, %d %d",
								batch, c, gh, gm, fh, fm, wh, wm, rh, rm)
						}
					}
					gs, gb := got.state()
					ws, wb := want.state()
					if fmt.Sprint(gs) != fmt.Sprint(ws) {
						t.Fatalf("batch %d: counters %v, reference %v", batch, gs, ws)
					}
					if !bytes.Equal(gb, wb) {
						t.Fatalf("batch %d: snapshot bytes differ from the reference's", batch)
					}
				}
			})
		}
	}
}

// TestAccessBatchCompactsMissesInOrder: the misses come back as a prefix
// of the caller's buffer, in reference order.
func TestAccessBatchCompactsMissesInOrder(t *testing.T) {
	c := mustCache(t, TableIL1())
	addrs := []uint64{0x1000, 0x1008, 0x2000, 0x1000, 0x3000, 0x2010}
	misses := c.AccessBatch(addrs)
	want := []uint64{0x1000, 0x2000, 0x3000}
	if fmt.Sprint(misses) != fmt.Sprint(want) || &misses[0] != &addrs[0] {
		t.Errorf("misses %#x, want %#x as a prefix of the input", misses, want)
	}
	if st := c.Stats(); st.Accesses != 6 || st.Hits != 3 || st.Misses != 3 {
		t.Errorf("stats %+v, want 6 accesses, 3 hits, 3 misses", st)
	}
}

// TestAccessBatchMatchesAccessWithPrefetchMarks covers the eviction of
// prefetched lines, which no L1 in the simulator has: a cache holding
// prefetch fills is driven by AccessBatch and by Access, in narrow and wide
// geometries, and must end with identical counters and snapshot bytes.
func TestAccessBatchMatchesAccessWithPrefetchMarks(t *testing.T) {
	for _, assoc := range []int{2, 16, 32} {
		cfg := Config{SizeBytes: 8 * assoc * 64, Assoc: assoc, BlockBytes: 64}
		got, want := mustCache(t, cfg), mustCache(t, cfg)
		r := stats.NewRand(uint64(assoc) + 100)
		for batch := 0; batch < 30; batch++ {
			for i := 0; i < 10; i++ {
				a := r.Uint64() % (1 << 16)
				got.Fill(a)
				want.Fill(a)
			}
			addrs := passStream(r, 200, 0)
			misses := got.AccessBatch(append([]uint64(nil), addrs...))
			var wantMisses []uint64
			for _, a := range addrs {
				if !want.Access(a) {
					wantMisses = append(wantMisses, a)
				}
			}
			ge, we := snapshot.NewEncoder(), snapshot.NewEncoder()
			got.Snapshot(ge)
			want.Snapshot(we)
			if fmt.Sprint(misses) != fmt.Sprint(wantMisses) || !bytes.Equal(ge.Bytes(), we.Bytes()) {
				t.Fatalf("%d-way batch %d: batched pass diverged from Access (misses %d vs %d)", assoc, batch, len(misses), len(wantMisses))
			}
		}
	}
}
