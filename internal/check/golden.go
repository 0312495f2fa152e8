package check

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"github.com/cpm-sim/cpm/internal/engine"
)

// Golden records a compact hashed trace of a run: one digest per measured
// GPM epoch (folding the epoch's chip power, throughput, instruction count,
// per-island powers and allocations), plus a final digest of the whole
// per-interval state series. Stored traces are small (a few hundred bytes
// per scenario) but pin the run's entire observable behaviour: any change
// to the power model, controllers, workload generation or scheduling
// shifts at least one digest.
//
// Epoch-digest inputs are quantized to 9 significant decimal digits before
// hashing, so traces are stable against non-semantic float formatting
// differences while still catching any real numerical drift. The final
// digest hashes raw bits: the run prologue (islands, cores, measured
// intervals), every interval's chip power, throughput and peak
// temperature, every island's level, frequency, power, BIPS and
// instruction count, the step's allocations, and each epoch's means. Two
// runs of the same configuration and seed produce the same digest on any
// executor (sequential, island-parallel, pooled, farmed).
type Golden struct {
	recorder
	scenario string
	// sum is the running FNV-1a value of the final digest. The whole hash
	// state is this one word, which is what lets a mid-run recorder be
	// checkpointed and resumed exactly.
	sum   uint64
	trace Trace
}

// NewGolden builds a recorder for the named scenario.
func NewGolden(scenario string) *Golden {
	return &Golden{
		recorder: recorder{name: "golden"},
		scenario: scenario,
		sum:      fnvOffset64,
	}
}

// Trace is the serialized golden record of one scenario run.
type Trace struct {
	// Scenario names the canonical scenario the trace pins.
	Scenario string `json:"scenario"`
	// Epochs is the number of measured GPM epochs.
	Epochs int `json:"epochs"`
	// EpochDigests are per-epoch FNV-1a digests (hex).
	EpochDigests []string `json:"epoch_digests"`
	// FinalDigest folds the full per-interval state series.
	FinalDigest string `json:"final_digest"`
	// MeanPowerW, MeanBIPS and MaxTempC are rounded headline numbers kept
	// for human diffing — the digests, not these, are what the regression
	// test compares exactly.
	MeanPowerW float64 `json:"mean_power_w"`
	MeanBIPS   float64 `json:"mean_bips"`
	MaxTempC   float64 `json:"max_temp_c"`
}

// FNV-1a 64 parameters, as in hash/fnv.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvWord extends the FNV-1a 64 value h by the eight little-endian bytes
// of v's bit pattern, taken straight from the word: byte for byte what
// hash/fnv's New64a computes over them.
func fnvWord(h uint64, v float64) uint64 {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= b & 0xff
		h *= fnvPrime64
		b >>= 8
	}
	return h
}

// appendQuantized appends v at 9 significant digits, the epoch-digest
// input format: the bytes fmt's %.9g renders.
func appendQuantized(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', 9, 64)
}

// RunStart implements engine.Observer.
func (g *Golden) RunStart(info engine.RunInfo) {
	h := g.sum
	h = fnvWord(h, float64(info.Islands))
	h = fnvWord(h, float64(info.Cores))
	h = fnvWord(h, float64(info.MeasureIntervals))
	g.sum = h
	g.trace = Trace{Scenario: g.scenario}
}

// ObserveStep implements engine.Observer.
func (g *Golden) ObserveStep(st engine.Step) {
	h := g.sum
	h = fnvWord(h, float64(st.Index))
	h = fnvWord(h, st.Sim.ChipPowerW)
	h = fnvWord(h, st.Sim.TotalBIPS)
	h = fnvWord(h, st.Sim.MaxTempC)
	for i := range st.Sim.Islands {
		ir := &st.Sim.Islands[i]
		h = fnvWord(h, float64(ir.Level))
		h = fnvWord(h, ir.FreqMHz)
		h = fnvWord(h, ir.PowerW)
		h = fnvWord(h, ir.BIPS)
		h = fnvWord(h, ir.Instructions)
	}
	for _, a := range st.AllocW {
		h = fnvWord(h, a)
	}
	g.sum = h
}

// ObserveEpoch implements engine.Observer.
func (g *Golden) ObserveEpoch(e engine.Epoch) {
	g.sum = fnvWord(fnvWord(fnvWord(g.sum, e.MeanPowerW), e.MeanBIPS), e.Instructions)

	var buf [32]byte
	h := fnv.New64a()
	put := func(v float64) { h.Write(appendQuantized(buf[:0], v)) }
	put(float64(e.Index))
	put(e.MeanPowerW)
	put(e.MeanBIPS)
	put(e.Instructions)
	for _, p := range e.IslandPowerW {
		put(p)
	}
	for _, bips := range e.IslandBIPS {
		put(bips)
	}
	for _, a := range e.AllocW {
		put(a)
	}
	g.trace.EpochDigests = append(g.trace.EpochDigests, fmt.Sprintf("%016x", h.Sum64()))
	g.trace.Epochs = len(g.trace.EpochDigests)
}

// RunEnd implements engine.Observer.
func (g *Golden) RunEnd(sum *engine.Summary) {
	g.trace.FinalDigest = fmt.Sprintf("%016x", g.sum)
	if sum != nil {
		g.trace.MeanPowerW = round6(sum.MeanPowerW)
		g.trace.MeanBIPS = round6(sum.MeanBIPS)
		g.trace.MaxTempC = round6(sum.MaxTempC)
	}
}

// round6 rounds to 6 decimal places for the human-readable trailer fields,
// half away from zero. An earlier implementation round-tripped through
// Sprintf/Sscanf, whose ties-to-even decimal rendering could flip a value
// sitting exactly on a quantum boundary depending on how the compiler
// contracted the upstream arithmetic; math.Round's half-away-from-zero rule
// is deterministic in the value alone. (Digest inputs go through
// appendQuantized, not this.)
func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// Trace returns the recorded trace (complete once RunEnd has fired).
func (g *Golden) Trace() Trace { return g.trace }

// Diff compares tr against a reference trace and returns a descriptive
// error at the first divergence, or nil when identical.
func (tr Trace) Diff(ref Trace) error {
	if tr.Scenario != ref.Scenario {
		return fmt.Errorf("golden: scenario %q compared against %q", tr.Scenario, ref.Scenario)
	}
	if tr.Epochs != ref.Epochs {
		return fmt.Errorf("golden: %s ran %d epochs, reference has %d", tr.Scenario, tr.Epochs, ref.Epochs)
	}
	for i := range ref.EpochDigests {
		if i < len(tr.EpochDigests) && tr.EpochDigests[i] != ref.EpochDigests[i] {
			return fmt.Errorf("golden: %s diverged at epoch %d: digest %s, reference %s (mean power now %.4f W, reference %.4f W)",
				tr.Scenario, i, tr.EpochDigests[i], ref.EpochDigests[i], tr.MeanPowerW, ref.MeanPowerW)
		}
	}
	if tr.FinalDigest != ref.FinalDigest {
		return fmt.Errorf("golden: %s epoch digests match but the interval-level digest diverged: %s vs reference %s",
			tr.Scenario, tr.FinalDigest, ref.FinalDigest)
	}
	return nil
}

// WriteFile stores the trace as indented JSON at path, creating parent
// directories as needed.
func (tr Trace) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTrace reads a stored golden trace.
func LoadTrace(path string) (Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Trace{}, err
	}
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		return Trace{}, fmt.Errorf("golden: parsing %s: %w", path, err)
	}
	return tr, nil
}
