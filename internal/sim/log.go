package sim

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/uarch"
)

// RecordLog is a bounded record log over one Sampler: it retains the last
// window intervals the sampler produced, each interval's record batch with
// the cumulative chip-wide and per-island cache counters taken right after
// it was sampled, plus the counters in force before the log's first
// interval (zeros, or a restored sampler's). Chips sharing the log may
// therefore be up to window intervals apart, where chips sharing the bare
// Sampler must step in lockstep. A farm group uses this to step each
// member a window of intervals at a time, so a member's state stays in the
// host's caches across its window instead of being evicted by every other
// member between two of its intervals.
//
// A chip built over a log (NewWithRecords) reads its cache counters from
// the log at the interval it last stepped: what a chip sharing the bare
// sampler reads right after its own step.
//
// The log must be the sampler's only consumer. Not safe for concurrent
// use.
type RecordLog struct {
	s      *Sampler
	first  int // the sampler's cursor when the log was built
	window int
	// recs holds interval k's batch in slot k%window; stats holds the
	// counters taken right after it, the chip's then each island's.
	recs  []uarch.TraceRecord
	stats []CacheStats
	// base is the counters in force before interval first, laid out as a
	// stats slot.
	base []CacheStats
}

// NewRecordLog builds a log retaining window intervals of s, starting at
// its cursor. window must be positive.
func NewRecordLog(s *Sampler, window int) *RecordLog {
	if window < 1 {
		panic(fmt.Sprintf("sim: record log window %d", window))
	}
	per := 1 + len(s.islands)
	l := &RecordLog{
		s:      s,
		first:  s.cursor,
		window: window,
		recs:   make([]uarch.TraceRecord, window*len(s.recs)),
		stats:  make([]CacheStats, window*per),
		base:   make([]CacheStats, per),
	}
	l.latch(l.base)
	return l
}

// latch writes the sampler's cumulative counters into one stats slot. The
// chip's are the islands' summed, which is how Sampler.CacheStats counts
// them.
func (l *RecordLog) latch(dst []CacheStats) {
	dst[0] = CacheStats{}
	for i := range l.s.islands {
		st := l.s.IslandCacheStats(i)
		dst[1+i] = st
		addCacheStats(&dst[0].L1I, st.L1I)
		addCacheStats(&dst[0].L1D, st.L1D)
		addCacheStats(&dst[0].L2, st.L2)
	}
}

// Records implements RecordSource: asking for the sampler's cursor
// interval samples it into the log; asking for any interval the log still
// retains returns its batch. Anything else panics: a chip has fallen
// further behind than the window, or ahead of the sampler, and continuing
// would silently corrupt its workload stream. The batch stays valid until
// the log samples window intervals further.
func (l *RecordLog) Records(k int) []uarch.TraceRecord {
	switch cur := l.s.cursor; {
	case k == cur:
		copy(l.batch(k%l.window), l.s.Records(k))
		l.latch(l.statsSlot(k % l.window))
	case k >= l.first && k >= cur-l.window && k < cur:
	default:
		panic(fmt.Sprintf("sim: record log at interval %d retains %d intervals (from %d), asked for %d",
			cur, l.window, l.first, k))
	}
	return l.batch(k % l.window)
}

func (l *RecordLog) batch(i int) []uarch.TraceRecord {
	n := len(l.s.recs)
	return l.recs[i*n : (i+1)*n : (i+1)*n]
}

func (l *RecordLog) statsSlot(i int) []CacheStats {
	per := len(l.base)
	return l.stats[i*per : (i+1)*per]
}

// counters returns the stats slot in force once interval n-1 has been
// sampled: the base at the log's first interval, otherwise the slot taken
// after interval n-1, which the log must still retain.
func (l *RecordLog) counters(n int) []CacheStats {
	cur := l.s.cursor
	switch {
	case n == l.first:
		return l.base
	case n > l.first && n <= cur && n > cur-l.window:
		return l.statsSlot((n - 1) % l.window)
	}
	panic(fmt.Sprintf("sim: record log at interval %d retains %d intervals (from %d), asked for counters before %d",
		cur, l.window, l.first, n))
}

// CacheStats returns the chip-wide cumulative cache counters a chip reads
// once it has stepped up to interval n: those taken right after interval
// n-1 was sampled, or the log's base counters when n is its first
// interval.
func (l *RecordLog) CacheStats(n int) CacheStats { return l.counters(n)[0] }

// IslandCacheStats is the island-i twin of CacheStats.
func (l *RecordLog) IslandCacheStats(n, i int) CacheStats { return l.counters(n)[1+i] }
