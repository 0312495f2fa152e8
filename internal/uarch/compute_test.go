package uarch

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/mem"
	"github.com/cpm-sim/cpm/internal/workload"
)

func TestNewComputeCoreValidation(t *testing.T) {
	m, _ := mem.New(mem.TableI())
	prof := workload.MustByName("bschls")
	if _, err := NewComputeCore(0, DefaultConfig(), prof, -1, m); err == nil {
		t.Error("negative latency should be rejected")
	}
	if _, err := NewComputeCore(0, DefaultConfig(), prof, 10, nil); err == nil {
		t.Error("nil memory system should be rejected")
	}
	bad := DefaultConfig()
	bad.NominalMaxMHz = 0
	if _, err := NewComputeCore(0, bad, prof, 10, m); err == nil {
		t.Error("invalid config should be rejected")
	}
	badProf := prof
	badProf.BaseCPI = -1
	if _, err := NewComputeCore(0, DefaultConfig(), badProf, 10, m); err == nil {
		t.Error("invalid profile should be rejected")
	}
}

// A compute core honours extra memory latency (NoC): the same records
// evaluated against a slower path to memory retire fewer instructions.
func TestComputeCoreExtraLatency(t *testing.T) {
	sampler := newCore(t, 0, 42, "bschls")
	recs := make([]TraceRecord, 10)
	for k := range recs {
		recs[k] = sampler.SampleInterval()
	}
	m, _ := mem.New(mem.TableI())
	mk := func(extra float64) float64 {
		cc, err := NewComputeCore(0, DefaultConfig(), workload.MustByName("bschls"), 10, m)
		if err != nil {
			t.Fatal(err)
		}
		if extra > 0 {
			cc.SetExtraMemLatency(func() float64 { return extra })
		}
		var instr float64
		for _, rec := range recs {
			instr += cc.FinishInterval(rec, 2000, 0.0025, 0).Instructions
		}
		return instr
	}
	if fast, slow := mk(0), mk(500); slow >= fast {
		t.Errorf("added memory latency should reduce throughput: %v vs %v", slow, fast)
	}
}
