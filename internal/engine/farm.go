package engine

import (
	"errors"
	"fmt"
)

// FarmRunner drives a set of sessions in passes: every pass steps each
// unfinished session, in session order, up to a window of intervals before
// the next session moves. A window of one is the lockstep round: all
// sessions consume the same interval's batch before any moves on. Chips
// sharing a sim.Sampler may be up to sim.Window intervals apart, so they
// may step in passes of that window (RunWindows), each chip's state
// staying in the host's caches across its window. Sessions may have
// different interval budgets; a session that exhausts its budget simply
// drops out of later passes.
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
func (f *FarmRunner) StepRound() int { return f.pass(1) }

// pass advances every unfinished session up to w intervals, one session at
// a time, and returns the number still unfinished. A session that steps
// fewer than w has exhausted its budget.
func (f *FarmRunner) pass(w int) int {
	for i, s := range f.sessions {
		if f.done[i] {
			continue
		}
		if s.RunIntervals(w) < w {
			f.done[i] = true
			f.active--
		}
	}
	return f.active
}

// Run steps lockstep rounds until every session's interval budget is
// exhausted, then finishes each session and returns the summaries in
// session order. onRound, when non-nil, is invoked after every round with
// the number of sessions completed so far and the total — the progress
// feed for fleet-scale CLIs.
func (f *FarmRunner) Run(onRound func(completed, total int)) []Summary {
	return f.RunWindows(1, onRound)
}

// RunWindows is Run in passes of w intervals per session; onPass is
// invoked after every pass. The sessions' sources must serve intervals w
// apart (a shared sim.Sampler, for w up to sim.Window).
func (f *FarmRunner) RunWindows(w int, onPass func(completed, total int)) []Summary {
	if w < 1 {
		panic(fmt.Sprintf("engine: farm window %d", w))
	}
	n := len(f.sessions)
	for f.active > 0 {
		f.pass(w)
		if onPass != nil {
			onPass(n-f.active, n)
		}
	}
	out := make([]Summary, n)
	for i, s := range f.sessions {
		out[i] = s.Run()
	}
	return out
}
