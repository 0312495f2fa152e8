package engine

import (
	"errors"
	"fmt"
)

// SessionConfig shapes one run: how long to warm up and how long to
// measure.
type SessionConfig struct {
	// WarmEpochs is the number of GPM epochs stepped before measurement
	// (results discarded from the summary, still visible to observers).
	WarmEpochs int
	// MeasureEpochs is the number of GPM epochs aggregated into the
	// summary. Must be positive.
	MeasureEpochs int
	// Period is the number of PIC intervals per GPM epoch (default 20).
	Period int
	// BudgetW is the chip power budget the run is evaluated against; it
	// feeds Epoch events and the summary's worst-epoch overshoot. Zero for
	// unmanaged runs.
	BudgetW float64
	// Label names the run in RunInfo.
	Label string
}

// Summary aggregates one run's measurement window — the superset of what
// the experiment harnesses, CLIs and examples previously each scraped by
// hand.
type Summary struct {
	// MeanPowerW is the mean chip power.
	MeanPowerW float64
	// MeanBIPS is the mean chip throughput.
	MeanBIPS float64
	// Instructions executed during the measurement window.
	Instructions float64
	// WorstEpochOver is the worst per-GPM-epoch budget overshoot fraction
	// (0 when the session has no budget).
	WorstEpochOver float64
	// MaxTempC is the peak temperature seen during measurement.
	MaxTempC float64
	// Epochs holds per-epoch mean chip power.
	Epochs []float64
	// EpochInstr holds per-epoch instruction totals.
	EpochInstr []float64
	// IslandAlloc[i] is the per-epoch allocation per island (managed runs
	// only; nil otherwise).
	IslandAlloc [][]float64
	// IslandPower[i] and IslandBIPS[i] are per-epoch means per island.
	IslandPower [][]float64
	IslandBIPS  [][]float64
	// AllocTrace records the allocation vector at every measured GPM
	// invocation (managed runs only).
	AllocTrace [][]float64
}

// runProgress is the mutable mid-run state of a Session: the interval
// cursor, the summary under construction (means still held as raw sums
// until finish divides them), and the per-epoch accumulators. Holding it in
// one struct is what makes a session checkpointable between intervals.
type runProgress struct {
	finished bool
	k        int // intervals completed (warmup + measurement combined)

	warm, meas int // interval totals
	n          int // islands

	sum Summary

	epochPow, epochInstr, epochBIPSAcc float64
	epochIslPow, epochIslBIPS          []float64
	managed                            bool
	// lastAlloc snapshots the provision before observers see the step:
	// Step.AllocW shares its backing array with the runner, so an observer
	// that writes into it must not be able to corrupt the epoch aggregates.
	lastAlloc []float64
}

// Session drives a Runner through warmup and measurement, aggregating the
// measurement window into a Summary and fanning events out to observers.
type Session struct {
	runner Runner
	cfg    SessionConfig
	obs    []Observer
	prog   *runProgress
}

// NewSession validates the configuration and binds runner and observers.
func NewSession(r Runner, cfg SessionConfig, obs ...Observer) (*Session, error) {
	if r == nil {
		return nil, errors.New("engine: nil runner")
	}
	if cfg.MeasureEpochs <= 0 {
		return nil, fmt.Errorf("engine: non-positive measurement window (%d epochs)", cfg.MeasureEpochs)
	}
	if cfg.WarmEpochs < 0 {
		return nil, fmt.Errorf("engine: negative warmup (%d epochs)", cfg.WarmEpochs)
	}
	if cfg.Period <= 0 {
		cfg.Period = 20
	}
	return &Session{runner: r, cfg: cfg, obs: obs}, nil
}

// Info describes the run the session performs.
func (s *Session) Info() RunInfo {
	cmp := s.runner.Chip()
	return RunInfo{
		Label:            s.cfg.Label,
		Islands:          cmp.NumIslands(),
		Cores:            cmp.NumCores(),
		Period:           s.cfg.Period,
		WarmIntervals:    s.cfg.WarmEpochs * s.cfg.Period,
		MeasureIntervals: s.cfg.MeasureEpochs * s.cfg.Period,
		BudgetW:          s.cfg.BudgetW,
		IntervalSec:      cmp.IntervalSec(),
	}
}

// Completed returns the number of intervals stepped so far (warmup and
// measurement combined; 0 before the session starts).
func (s *Session) Completed() int {
	if s.prog == nil {
		return 0
	}
	return s.prog.k
}

// TotalIntervals returns the session's interval budget: warmup plus
// measurement.
func (s *Session) TotalIntervals() int {
	return (s.cfg.WarmEpochs + s.cfg.MeasureEpochs) * s.cfg.Period
}

// start initializes progress and announces the run to observers.
func (s *Session) start() {
	n := s.runner.Chip().NumIslands()
	s.prog = &runProgress{
		warm: s.cfg.WarmEpochs * s.cfg.Period,
		meas: s.cfg.MeasureEpochs * s.cfg.Period,
		n:    n,
		sum: Summary{
			IslandPower: make([][]float64, n),
			IslandBIPS:  make([][]float64, n),
		},
		epochIslPow:  make([]float64, n),
		epochIslBIPS: make([]float64, n),
	}
	info := s.Info()
	for _, o := range s.obs {
		o.RunStart(info)
	}
}

// stepOne advances the session a single interval — a warmup interval when
// the cursor is still inside the warmup window, a measured one otherwise.
func (s *Session) stepOne() {
	p := s.prog
	if p.k < p.warm {
		st := s.runner.Step()
		for _, o := range s.obs {
			o.ObserveStep(st)
		}
		p.k++
		return
	}

	k := p.k - p.warm // measured interval index
	n := p.n
	period := s.cfg.Period
	sum := &p.sum

	st := s.runner.Step()
	st.Measured = true
	if st.AllocW != nil {
		p.managed = true
		p.lastAlloc = append(p.lastAlloc[:0], st.AllocW...)
		if st.GPMInvoked {
			sum.AllocTrace = append(sum.AllocTrace, append([]float64(nil), st.AllocW...))
		}
	}
	sum.MeanPowerW += st.Sim.ChipPowerW
	sum.MeanBIPS += st.Sim.TotalBIPS
	if st.Sim.MaxTempC > sum.MaxTempC {
		sum.MaxTempC = st.Sim.MaxTempC
	}
	p.epochPow += st.Sim.ChipPowerW
	p.epochBIPSAcc += st.Sim.TotalBIPS
	for i, ir := range st.Sim.Islands {
		sum.Instructions += ir.Instructions
		p.epochInstr += ir.Instructions
		p.epochIslPow[i] += ir.PowerW
		p.epochIslBIPS[i] += ir.BIPS
	}
	for _, o := range s.obs {
		o.ObserveStep(st)
	}
	if (k+1)%period == 0 {
		pf := float64(period)
		mean := p.epochPow / pf
		sum.Epochs = append(sum.Epochs, mean)
		sum.EpochInstr = append(sum.EpochInstr, p.epochInstr)
		if s.cfg.BudgetW > 0 {
			if over := (mean - s.cfg.BudgetW) / s.cfg.BudgetW; over > sum.WorstEpochOver {
				sum.WorstEpochOver = over
			}
		}
		ev := Epoch{
			Index:        len(sum.Epochs) - 1,
			MeanPowerW:   mean,
			MeanBIPS:     p.epochBIPSAcc / pf,
			Instructions: p.epochInstr,
			BudgetW:      s.cfg.BudgetW,
			IslandPowerW: make([]float64, n),
			IslandBIPS:   make([]float64, n),
		}
		if p.managed && p.lastAlloc != nil {
			ev.AllocW = append([]float64(nil), p.lastAlloc...)
			if sum.IslandAlloc == nil {
				sum.IslandAlloc = make([][]float64, n)
			}
		}
		for i := 0; i < n; i++ {
			ev.IslandPowerW[i] = p.epochIslPow[i] / pf
			ev.IslandBIPS[i] = p.epochIslBIPS[i] / pf
			if ev.AllocW != nil {
				sum.IslandAlloc[i] = append(sum.IslandAlloc[i], p.lastAlloc[i])
			}
			sum.IslandPower[i] = append(sum.IslandPower[i], p.epochIslPow[i]/pf)
			sum.IslandBIPS[i] = append(sum.IslandBIPS[i], p.epochIslBIPS[i]/pf)
			p.epochIslPow[i], p.epochIslBIPS[i] = 0, 0
		}
		p.epochPow, p.epochInstr, p.epochBIPSAcc = 0, 0, 0
		for _, o := range s.obs {
			o.ObserveEpoch(ev)
		}
	}
	p.k++
}

// finish converts the accumulated sums into means and announces the end of
// the run.
func (s *Session) finish() Summary {
	p := s.prog
	p.sum.MeanPowerW /= float64(p.meas)
	p.sum.MeanBIPS /= float64(p.meas)
	p.finished = true
	for _, o := range s.obs {
		o.RunEnd(&p.sum)
	}
	return p.sum
}

// RunIntervals advances the session by up to n intervals (starting it on
// the first call) without finishing the run, and reports how many intervals
// were actually stepped — fewer than n when the run's interval budget is
// exhausted. Interleave with Snapshot to checkpoint a run mid-flight; call
// Run to complete it.
func (s *Session) RunIntervals(n int) int {
	if s.prog == nil {
		s.start()
	}
	total := s.prog.warm + s.prog.meas
	done := 0
	for done < n && s.prog.k < total {
		s.stepOne()
		done++
	}
	return done
}

// Run executes the session to completion: warmup epochs, then the
// measurement window, then the summary. It may be called once per Session
// (Runners are single-use); a session partially advanced by RunIntervals or
// restored from a snapshot is continued, not restarted.
func (s *Session) Run() Summary {
	if s.prog == nil {
		s.start()
	}
	for s.prog.k < s.prog.warm+s.prog.meas {
		s.stepOne()
	}
	return s.finish()
}
