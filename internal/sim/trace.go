package sim

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/uarch"
)

// RecordTraces samples the first n intervals of cfg's workload
// (NewSampler(cfg)) into a TraceSet. Records do not depend on the operating
// point, so the set is what a New(cfg) chip samples over its first n
// intervals under any controller or DVFS trajectory.
func RecordTraces(cfg Config, n int) (uarch.TraceSet, error) {
	if n <= 0 {
		return uarch.TraceSet{}, fmt.Errorf("sim: trace length %d, want > 0", n)
	}
	s, err := NewSampler(cfg)
	if err != nil {
		return uarch.TraceSet{}, err
	}
	set := uarch.TraceSet{
		Benchmarks: map[int]string{},
		Records:    map[int][]uarch.TraceRecord{},
	}
	for _, isl := range s.islands {
		for _, core := range isl.cores {
			set.Benchmarks[core.ID()] = core.Profile().Name
			set.Records[core.ID()] = make([]uarch.TraceRecord, 0, n)
		}
	}
	for k := 0; k < n; k++ {
		for id, rec := range s.Records(k) {
			set.Records[id] = append(set.Records[id], rec)
		}
	}
	return set, nil
}

// NewReplay builds a chip that replays set instead of sampling: interval k
// evaluates each core's record k, wrapping to the start of the core's
// trace when it runs out. One recording can so be re-evaluated under any
// controller or DVFS trajectory without phase generation or cache
// simulation. Trace files are outside input, so the set is checked against
// cfg's mix: every core needs a non-empty trace recorded from the benchmark
// the mix assigns it. A replay chip simulates no caches; its cache
// statistics read zero.
func NewReplay(cfg Config, set uarch.TraceSet) (*CMP, error) {
	c, err := newChip(cfg)
	if err != nil {
		return nil, err
	}
	src := &traceSource{
		traces: make([][]uarch.TraceRecord, c.nCores),
		recs:   make([]uarch.TraceRecord, c.nCores),
	}
	for _, st := range c.islands {
		for _, core := range st.cores {
			id, name := core.ID(), core.Profile().Name
			bench, ok := set.Benchmarks[id]
			if !ok {
				return nil, fmt.Errorf("sim: replay set has no trace for core %d", id)
			}
			if bench != name {
				return nil, fmt.Errorf("sim: core %d trace was recorded from %s, mix assigns %s", id, bench, name)
			}
			if len(set.Records[id]) == 0 {
				return nil, fmt.Errorf("sim: core %d has an empty trace", id)
			}
			src.traces[id] = set.Records[id]
		}
	}
	c.src = src
	return c, nil
}

// traceSource is the RecordSource of a replay chip. Its batch for interval
// k is a function of k alone, so it carries no state a snapshot would need:
// the chip's restored interval counter puts it back in place.
type traceSource struct {
	traces [][]uarch.TraceRecord // by core ID
	recs   []uarch.TraceRecord
}

// Records implements RecordSource.
func (t *traceSource) Records(k int) []uarch.TraceRecord {
	for id, tr := range t.traces {
		t.recs[id] = tr[k%len(tr)]
	}
	return t.recs
}
