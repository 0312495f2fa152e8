package engine

import "errors"

// FarmRunner drives a set of sessions in lockstep rounds: every round steps
// each unfinished session exactly one interval, in session order. This is
// the driving discipline record-driven chips (sim.NewWithRecords) require —
// all chips sharing a sampler consume the same interval's record batch
// before any chip moves to the next — and it bounds the sampler's buffering
// to a single batch regardless of fleet size. Sessions may have different
// interval budgets; a session that exhausts its budget simply drops out of
// later rounds.
//
// A FarmRunner is single-use and not safe for concurrent use. Shard
// independent farms (separate samplers) across a Pool instead.
type FarmRunner struct {
	sessions []*Session
	done     []bool
	active   int
}

// NewFarmRunner binds the sessions of one farm shard.
func NewFarmRunner(sessions []*Session) (*FarmRunner, error) {
	if len(sessions) == 0 {
		return nil, errors.New("engine: farm needs at least one session")
	}
	for _, s := range sessions {
		if s == nil {
			return nil, errors.New("engine: nil session in farm")
		}
	}
	return &FarmRunner{
		sessions: sessions,
		done:     make([]bool, len(sessions)),
		active:   len(sessions),
	}, nil
}

// StepRound advances every unfinished session one interval and returns the
// number still unfinished.
func (f *FarmRunner) StepRound() int {
	for i, s := range f.sessions {
		if f.done[i] {
			continue
		}
		if s.RunIntervals(1) == 0 {
			f.done[i] = true
			f.active--
		}
	}
	return f.active
}

// Run steps rounds until every session's interval budget is exhausted,
// then finishes each session and returns the summaries in session order.
// onRound, when non-nil, is invoked after every round with the number of
// sessions completed so far and the total — the progress feed for
// fleet-scale CLIs.
func (f *FarmRunner) Run(onRound func(completed, total int)) []Summary {
	n := len(f.sessions)
	for f.active > 0 {
		f.StepRound()
		if onRound != nil {
			onRound(n-f.active, n)
		}
	}
	out := make([]Summary, n)
	for i, s := range f.sessions {
		out[i] = s.Run()
	}
	return out
}
