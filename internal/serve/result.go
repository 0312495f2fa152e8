package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/metrics"
)

// EpochReport is one measured GPM epoch of a run: the epoch means the
// session aggregated, plus the golden digest folding them — the same
// quantized FNV-1a the pinned regression traces store, so a client can
// verify a served run against the repository's goldens line by line.
//
// Float fields use metrics.Float so a non-finite value (which encoding/json
// rejects outright) degrades to null instead of poisoning the whole
// response.
type EpochReport struct {
	Index        int             `json:"index"`
	MeanPowerW   metrics.Float   `json:"mean_power_w"`
	MeanBIPS     metrics.Float   `json:"mean_bips"`
	Instructions metrics.Float   `json:"instructions"`
	AllocW       []metrics.Float `json:"alloc_w,omitempty"`
	IslandPowerW []metrics.Float `json:"island_power_w"`
	IslandBIPS   []metrics.Float `json:"island_bips"`
	Digest       string          `json:"digest"`
}

// Report is the final document of one run: headline summary, the per-epoch
// series, and the golden digests (per-epoch and the final interval-level
// fold) that pin the run's entire observable behaviour.
type Report struct {
	Scenario       string        `json:"scenario"`
	Seed           uint64        `json:"seed"`
	BudgetFrac     metrics.Float `json:"budget_frac"`
	BudgetW        metrics.Float `json:"budget_w"`
	Islands        int           `json:"islands"`
	Cores          int           `json:"cores"`
	WarmEpochs     int           `json:"warm_epochs"`
	Epochs         int           `json:"epochs"`
	MeanPowerW     metrics.Float `json:"mean_power_w"`
	MeanBIPS       metrics.Float `json:"mean_bips"`
	MaxTempC       metrics.Float `json:"max_temp_c"`
	WorstEpochOver metrics.Float `json:"worst_epoch_over"`
	EpochSeries    []EpochReport `json:"epoch_series,omitempty"`
	EpochDigests   []string      `json:"epoch_digests"`
	FinalDigest    string        `json:"final_digest"`
}

// streamLine wraps the two NDJSON line shapes with their discriminator.
type epochLine struct {
	Type string `json:"type"`
	EpochReport
}

type reportLine struct {
	Type string `json:"type"`
	Report
}

// result is one completed simulation with both response renderings
// precomputed: the JSON report body and the NDJSON stream. Rendering once
// at completion is what makes every response for a given cache key —
// leader, coalesced follower, cache hit — byte-identical by construction.
// The renderings are all a cache entry keeps.
type result struct {
	body   []byte // single JSON report (POST /v1/run)
	ndjson []byte // per-epoch NDJSON stream (stream=true)
}

// epochRecorder captures the session's run info and per-epoch events; the
// engine hands observers freshly allocated epoch slices, so retaining them
// is part of the Observer contract.
type epochRecorder struct {
	info   engine.RunInfo
	epochs []engine.Epoch
}

// observer adapts the recorder to engine.Observer.
func (r *epochRecorder) observer() engine.Observer {
	return engine.Funcs{
		OnRunStart: func(info engine.RunInfo) { r.info = info },
		OnEpoch:    func(e engine.Epoch) { r.epochs = append(r.epochs, e) },
	}
}

// floats converts a slice for NaN/Inf-safe JSON encoding.
func floats(v []float64) []metrics.Float {
	if v == nil {
		return nil
	}
	out := make([]metrics.Float, len(v))
	for i, x := range v {
		out[i] = metrics.Float(x)
	}
	return out
}

// buildResult assembles the report from a finished run and renders both
// response bodies. The digest count must match the epoch count — a
// mismatch means the observer wiring broke, which is a server bug, not a
// client error.
func buildResult(req Request, sum engine.Summary, rec *epochRecorder, tr check.Trace) (*result, error) {
	if len(tr.EpochDigests) != len(rec.epochs) {
		return nil, fmt.Errorf("serve: %d epoch digests for %d recorded epochs", len(tr.EpochDigests), len(rec.epochs))
	}
	rep := Report{
		Scenario:       req.Scenario,
		Seed:           req.Seed,
		BudgetFrac:     metrics.Float(req.BudgetFrac),
		BudgetW:        metrics.Float(rec.info.BudgetW),
		Islands:        rec.info.Islands,
		Cores:          rec.info.Cores,
		WarmEpochs:     req.WarmEpochs,
		Epochs:         len(rec.epochs),
		MeanPowerW:     metrics.Float(sum.MeanPowerW),
		MeanBIPS:       metrics.Float(sum.MeanBIPS),
		MaxTempC:       metrics.Float(sum.MaxTempC),
		WorstEpochOver: metrics.Float(sum.WorstEpochOver),
		EpochDigests:   tr.EpochDigests,
		FinalDigest:    tr.FinalDigest,
	}
	for i, e := range rec.epochs {
		rep.EpochSeries = append(rep.EpochSeries, EpochReport{
			Index:        e.Index,
			MeanPowerW:   metrics.Float(e.MeanPowerW),
			MeanBIPS:     metrics.Float(e.MeanBIPS),
			Instructions: metrics.Float(e.Instructions),
			AllocW:       floats(e.AllocW),
			IslandPowerW: floats(e.IslandPowerW),
			IslandBIPS:   floats(e.IslandBIPS),
			Digest:       tr.EpochDigests[i],
		})
	}
	return renderResult(rep)
}

// renderResult produces both response bodies from a completed report. The
// stream is copied out of the buffer it grew in, so a cached result holds
// no spare capacity.
func renderResult(rep Report) (*result, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("serve: rendering report: %w", err)
	}
	body = append(body, '\n')

	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	for _, e := range rep.EpochSeries {
		if err := enc.Encode(epochLine{Type: "epoch", EpochReport: e}); err != nil {
			return nil, fmt.Errorf("serve: rendering epoch stream: %w", err)
		}
	}
	final := rep
	final.EpochSeries = nil // epochs already streamed line by line
	if err := enc.Encode(reportLine{Type: "report", Report: final}); err != nil {
		return nil, fmt.Errorf("serve: rendering stream trailer: %w", err)
	}
	return &result{body: body, ndjson: bytes.Clone(stream.Bytes())}, nil
}
