package uarch

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/cpm-sim/cpm/internal/workload"
)

// TraceSet is a saved collection of per-core traces plus the profile names
// needed to check them against a mix on replay.
type TraceSet struct {
	// Benchmarks[coreID] names the profile the core ran.
	Benchmarks map[int]string
	// Records[coreID] is the interval trace.
	Records map[int][]TraceRecord
}

// validate checks the shape SaveTraces writes and LoadTraces accepts: at
// least one core, and every core a non-empty trace of a known benchmark.
func (set TraceSet) validate() error {
	if len(set.Records) == 0 {
		return errors.New("uarch: empty trace set")
	}
	for id, recs := range set.Records {
		if len(recs) == 0 {
			return fmt.Errorf("uarch: core %d has an empty trace", id)
		}
		name, ok := set.Benchmarks[id]
		if !ok {
			return fmt.Errorf("uarch: core %d has no benchmark name", id)
		}
		if _, err := workload.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

// SaveTraces gob-encodes a TraceSet, refusing any set LoadTraces would
// reject.
func SaveTraces(w io.Writer, set TraceSet) error {
	if err := set.validate(); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(set)
}

// LoadTraces decodes a TraceSet and validates its shape.
func LoadTraces(r io.Reader) (TraceSet, error) {
	var set TraceSet
	if err := gob.NewDecoder(r).Decode(&set); err != nil {
		return TraceSet{}, fmt.Errorf("uarch: decoding traces: %w", err)
	}
	if err := set.validate(); err != nil {
		return TraceSet{}, err
	}
	return set, nil
}
