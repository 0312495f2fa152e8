package sweepd

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/cpm-sim/cpm/internal/engine"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers is the worker-goroutine pool size; 0 means GOMAXPROCS,
	// capped at the number of points.
	Workers int
	// CheckpointEvery is the interval-boundary cadence at which workers
	// checkpoint their in-flight point; 0 means every 20 intervals (one
	// epoch at the default period).
	CheckpointEvery int
	// KillEvery injects a deterministic worker death each time a point
	// first completes an interval divisible by KillEvery; 0 disables
	// injection. See killPlan for the determinism contract.
	KillEvery int
	// Metrics receives checkpoint/migration telemetry; nil disables.
	Metrics *Instruments
	// Log receives one line per checkpoint, kill, and migration; nil
	// discards.
	Log io.Writer
}

// Stats summarizes the fault-tolerance activity of one Run.
type Stats struct {
	Checkpoints        int   // checkpoints taken at interval boundaries
	CheckpointBytes    int64 // total encoded size of those checkpoints
	MaxCheckpointBytes int   // largest single checkpoint
	Kills              int   // injected worker deaths
	Migrations         int   // points reassigned after a death
	Restores           int   // migrations that resumed from a checkpoint
}

// killPlan injects worker deaths deterministically. A kill fires the first
// time a point completes an interval divisible by Every — and at most once
// per (point, interval), so intervals re-executed after a restore never
// re-fire and forward progress is guaranteed even when the kill cadence is
// denser than the checkpoint cadence. Keying on point progress rather than
// wall clock or worker identity makes the schedule identical at any worker
// count, which is what lets kill-equivalence tests demand byte-identical
// output.
type killPlan struct {
	every int
	mu    sync.Mutex
	fired map[string]map[int]bool
}

func (p *killPlan) fire(point string, interval int) bool {
	if p == nil || p.every <= 0 || interval <= 0 || interval%p.every != 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fired[point][interval] {
		return false
	}
	if p.fired == nil {
		p.fired = make(map[string]map[int]bool)
	}
	if p.fired[point] == nil {
		p.fired[point] = make(map[int]bool)
	}
	p.fired[point][interval] = true
	return true
}

// Coordinator drives a set of points to completion across a pool of worker
// goroutines, checkpointing and migrating as configured. Use New, Run once,
// then read Stats.
type Coordinator struct {
	points  []Point
	cfg     Config
	workers int
	ckEvery int
	kills   *killPlan
	// latest is each point's latest checkpoint, taken at interval
	// latestAt.
	latest   [][]byte
	latestAt []int
	sums     []engine.Summary
	errs     []error
	stats    Stats
	ran      bool
}

// New validates the point set and returns a coordinator ready to Run.
func New(points []Point, cfg Config) (*Coordinator, error) {
	if len(points) == 0 {
		return nil, errors.New("sweepd: no points")
	}
	seen := make(map[string]int, len(points))
	for i, p := range points {
		if p.Name == "" {
			return nil, fmt.Errorf("sweepd: point %d has no name", i)
		}
		if p.Build == nil {
			return nil, fmt.Errorf("sweepd: point %d (%s) has no Build", i, p.Name)
		}
		if j, dup := seen[p.Name]; dup {
			return nil, fmt.Errorf("sweepd: points %d and %d share name %q (names are checkpoint fingerprints and must be unique)", j, i, p.Name)
		}
		seen[p.Name] = i
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(points) {
		w = len(points)
	}
	ck := cfg.CheckpointEvery
	if ck <= 0 {
		ck = 20
	}
	if cfg.KillEvery < 0 {
		return nil, fmt.Errorf("sweepd: KillEvery %d must be >= 0", cfg.KillEvery)
	}
	return &Coordinator{
		points:   points,
		cfg:      cfg,
		workers:  w,
		ckEvery:  ck,
		kills:    &killPlan{every: cfg.KillEvery},
		latest:   make([][]byte, len(points)),
		latestAt: make([]int, len(points)),
		sums:     make([]engine.Summary, len(points)),
		errs:     make([]error, len(points)),
	}, nil
}

// event kinds flowing from workers to the coordinator loop.
type evKind int

const (
	evCheckpoint evKind = iota // periodic checkpoint of an in-flight point
	evDied                     // injected kill: the worker goroutine is gone
	evDone                     // point ran to completion
	evFail                     // point failed permanently (build/restore/panic)
)

type event struct {
	kind     evKind
	worker   int
	point    int
	interval int
	data     []byte
	sum      engine.Summary
	err      error
}

type task struct {
	point int
	ckpt  []byte // nil = cold build, else resume from this checkpoint
}

// Run drives every point to completion or permanent failure, migrating
// killed points. It returns per-point summaries in point order; if any
// point failed, the error names the lowest-index failing point and its
// cause, and the remaining summaries are still valid. Run may be called
// once.
func (c *Coordinator) Run() ([]engine.Summary, error) {
	if c.ran {
		return nil, errors.New("sweepd: coordinator already run")
	}
	c.ran = true

	tasks := make(chan task)
	events := make(chan event)
	pending := make([]task, len(c.points))
	for i := range pending {
		pending[i] = task{point: i}
	}
	nextWorker := 0
	spawn := func() {
		id := nextWorker
		nextWorker++
		go c.worker(id, tasks, events)
	}
	for i := 0; i < c.workers; i++ {
		spawn()
	}

	remaining := len(c.points)
	for remaining > 0 {
		// Offer the head of the queue to any idle worker while staying
		// responsive to events; a nil channel blocks the send case away
		// when the queue is empty.
		var send chan task
		var head task
		if len(pending) > 0 {
			send = tasks
			head = pending[0]
		}
		select {
		case send <- head:
			pending = pending[1:]
		case ev := <-events:
			switch ev.kind {
			case evCheckpoint:
				c.latest[ev.point], c.latestAt[ev.point] = ev.data, ev.interval
				c.stats.Checkpoints++
				c.stats.CheckpointBytes += int64(len(ev.data))
				if len(ev.data) > c.stats.MaxCheckpointBytes {
					c.stats.MaxCheckpointBytes = len(ev.data)
				}
				c.cfg.Metrics.checkpoint(len(ev.data))
				c.logf("worker %d checkpointed %s at interval %d (%d bytes)", ev.worker, c.points[ev.point].Name, ev.interval, len(ev.data))
			case evDied:
				c.stats.Kills++
				c.stats.Migrations++
				c.cfg.Metrics.kill()
				c.cfg.Metrics.migration()
				from := "scratch"
				if ck := c.latest[ev.point]; ck != nil {
					c.stats.Restores++
					from = fmt.Sprintf("checkpoint @%d", c.latestAt[ev.point])
				}
				pending = append(pending, task{point: ev.point, ckpt: c.latest[ev.point]})
				// The dead worker's goroutine returned; replace it to keep
				// the pool at strength.
				spawn()
				c.logf("worker %d died on %s at interval %d; migrating (resume from %s)", ev.worker, c.points[ev.point].Name, ev.interval, from)
			case evDone:
				c.sums[ev.point] = ev.sum
				c.latest[ev.point] = nil // never migrated again
				remaining--
			case evFail:
				c.errs[ev.point] = ev.err
				c.latest[ev.point] = nil // never restarted
				remaining--
			}
		}
	}
	close(tasks)

	for i, err := range c.errs {
		if err != nil {
			return c.sums, fmt.Errorf("sweepd: point %d (%s): %w", i, c.points[i].Name, err)
		}
	}
	return c.sums, nil
}

// Stats returns the fault-tolerance counters gathered by Run.
func (c *Coordinator) Stats() Stats { return c.stats }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	fmt.Fprintf(c.cfg.Log, "sweepd: "+format+"\n", args...)
}

// worker pulls assignments until the task channel closes or an injected
// kill terminates this incarnation (the coordinator spawns a replacement).
func (c *Coordinator) worker(id int, tasks <-chan task, events chan<- event) {
	for t := range tasks {
		if died := c.execute(id, t, events); died {
			return
		}
	}
}

// execute runs one assignment to completion, permanent failure, or injected
// death. Build and restore failures are permanent: retrying a checkpoint
// that failed validation cannot succeed, so the point fails rather than
// looping.
func (c *Coordinator) execute(id int, t task, events chan<- event) (died bool) {
	p := c.points[t.point]
	inst, err := p.Build()
	if err != nil {
		events <- event{kind: evFail, worker: id, point: t.point, err: fmt.Errorf("build: %w", err)}
		return false
	}
	if t.ckpt != nil {
		if _, err := RestoreCheckpoint(p, inst, t.ckpt); err != nil {
			events <- event{kind: evFail, worker: id, point: t.point, err: err}
			return false
		}
	}
	return c.drive(id, t.point, inst, len(t.ckpt), events)
}

// drive steps the instance interval by interval: fire any planned kill at
// the boundary first (a crash loses the work since the last checkpoint,
// which the migrated incarnation re-executes deterministically), then
// checkpoint on cadence. Each checkpoint is encoded into one buffer sized
// by the point's previous one, or by the checkpoint it restored from
// (ckptSize; 0 on a cold start). Panics out of the simulation are
// contained here: the point fails with an error naming it and carrying the
// stack, while the process and every other point continue.
func (c *Coordinator) drive(id, point int, inst *Instance, ckptSize int, events chan<- event) (died bool) {
	p := c.points[point]
	var sum engine.Summary
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
			}
		}()
		sess := inst.Session
		for {
			if sess.RunIntervals(1) == 0 {
				sum = sess.Run() // all intervals done; finalize the summary
				return nil
			}
			k := sess.Completed()
			if inst.Check != nil {
				if cerr := inst.Check(); cerr != nil {
					return fmt.Errorf("check failed at interval %d: %w", k, cerr)
				}
			}
			if c.kills.fire(p.Name, k) {
				died = true
				events <- event{kind: evDied, worker: id, point: point, interval: k}
				return nil
			}
			if k%c.ckEvery == 0 && k < sess.TotalIntervals() {
				data, err := encodeCheckpoint(p, inst, ckptSize)
				if err != nil {
					return fmt.Errorf("checkpoint at interval %d: %w", k, err)
				}
				ckptSize = len(data)
				events <- event{kind: evCheckpoint, worker: id, point: point, interval: k, data: data}
			}
		}
	}()
	if died {
		return true
	}
	if err != nil {
		events <- event{kind: evFail, worker: id, point: point, err: err}
		return false
	}
	events <- event{kind: evDone, worker: id, point: point, sum: sum}
	return false
}
