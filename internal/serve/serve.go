// Package serve is the simulation-as-a-service layer: an HTTP/JSON front
// end over the deterministic engine/check stack. A request names a
// canonical scenario plus a (seed, budget, windows) variation; the response
// is either a single JSON report or an NDJSON per-epoch stream, both
// carrying the golden digests that pin the run's observable behaviour.
//
// Determinism is the load-bearing property. Every request resolves to a
// content-addressed fingerprint (Request.CacheKey, in the snapshot-header
// style, versioned by snapshot.Version and ResultVersion), and the server
// exploits it at two levels:
//
//  1. Result cache: identical resolved requests are served from a bounded
//     LRU of rendered results — byte-identical bodies, zero simulation.
//  2. Coalescing: concurrent identical requests collapse onto one in-flight
//     run (singleflight); followers wait for the leader's result.
//
// Every other request is one run: a worker takes the oldest queued job and
// builds it through check.Scenario.Build, the constructor cpmsim, sweepd
// and the experiments use.
//
// Admission is a bounded FIFO queue over a fixed worker pool: when the
// number of outstanding runs reaches Workers+QueueDepth the server answers
// 429 with Retry-After instead of building an unbounded backlog. StartDrain
// flips the server into drain mode — accepted runs (queued and in-flight)
// finish, new submissions are refused with 503 — and Drain blocks until the
// last accepted run completes, which is the graceful-SIGTERM path of
// cmd/cpmserve.
package serve

import (
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/metrics"
)

// Options shapes a Server.
type Options struct {
	// Workers is the number of concurrent simulation workers; <= 0 selects
	// 4. Each worker runs one job at a time.
	Workers int
	// QueueDepth bounds the backlog beyond the running jobs: a submission
	// arriving with Workers+QueueDepth jobs outstanding is rejected with
	// 429. < 0 means 0 (no queue: reject unless a worker is free).
	QueueDepth int
	// CacheEntries bounds the LRU result cache; 0 selects 256, negative
	// disables caching.
	CacheEntries int
	// Registry receives both the server's own telemetry and the per-run
	// engine telemetry, served at /metrics. Nil creates a fresh registry.
	Registry *metrics.Registry
	// RunHook, when non-nil, is called on the executing worker once per
	// simulation run, immediately before the run starts. Tests use it as
	// the run counter proving coalescing, and block in it to hold workers
	// busy.
	RunHook func(req Request)
}

// withDefaults resolves the option defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// Stats is a point-in-time snapshot of the server's admission counters.
type Stats struct {
	// Hits, Misses and Coalesced partition accepted /v1/run requests by how
	// they were satisfied: from the result cache, by running a fresh
	// simulation (the flight leader), or by attaching to an in-flight one.
	Hits, Misses, Coalesced uint64
	// RejectedQueueFull and RejectedDraining count 429 and 503 refusals.
	RejectedQueueFull, RejectedDraining uint64
	// Runs counts simulation runs executed.
	Runs uint64
	// CacheEntries and QueueDepth are current occupancy; Draining reports
	// drain mode.
	CacheEntries, QueueDepth int
	Draining                 bool
}

// job is one accepted unit of work: the flight leader for its cache key.
// Followers wait on done and read res/err afterwards (the close is the
// happens-before edge).
type job struct {
	req Request
	sc  check.Scenario
	key string

	done chan struct{}
	res  *result
	err  error
}

// Server is the simulation service: admission state machine, worker pool,
// result cache and telemetry. Construct with NewServer; serve via Handler.
type Server struct {
	opts Options
	reg  *metrics.Registry

	mu          sync.Mutex
	cache       *lruCache
	flights     map[string]*job // cache key -> in-flight leader
	outstanding int             // queued + running jobs
	draining    bool
	stats       Stats

	// queue holds accepted jobs not yet taken by a worker, oldest first.
	// Its capacity is the admission bound, and submit sends only below it,
	// so a send never blocks.
	queue     chan *job
	closeOnce sync.Once
	jobsWG    sync.WaitGroup // accepted jobs not yet finished
	workersWG sync.WaitGroup

	m serverInstruments
}

// serverInstruments are the server-plane metric handles (the per-run
// engine telemetry is attached per job by the executor).
type serverInstruments struct {
	requests                    *metrics.CounterVec // label: code
	hits, misses, coalesced     *metrics.Counter
	rejectedFull, rejectedDrain *metrics.Counter
	runs                        *metrics.Counter
	runSeconds                  *metrics.Histogram
	queueDepth, inflight        *metrics.Gauge
	cacheEntries                *metrics.Gauge
	drainingG                   *metrics.Gauge
}

// NewServer builds the server and starts its workers. Callers must Close
// (or Drain then Close) before discarding it.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		reg:     opts.Registry,
		cache:   newLRUCache(opts.CacheEntries),
		flights: map[string]*job{},
		queue:   make(chan *job, opts.Workers+opts.QueueDepth),
	}
	r := s.reg
	s.m = serverInstruments{
		requests: r.CounterVec("cpmserve_requests_total",
			"HTTP requests to /v1/run by response code.", "code"),
		hits: r.CounterVec("cpmserve_cache_hits_total",
			"Run requests served from the content-addressed result cache.").With(),
		misses: r.CounterVec("cpmserve_cache_misses_total",
			"Run requests that led a fresh simulation (flight leaders).").With(),
		coalesced: r.CounterVec("cpmserve_coalesced_total",
			"Run requests coalesced onto an identical in-flight simulation.").With(),
		rejectedFull: r.CounterVec("cpmserve_rejected_total",
			"Run requests refused by admission control.", "reason").With("queue-full"),
		rejectedDrain: r.CounterVec("cpmserve_rejected_total",
			"Run requests refused by admission control.", "reason").With("draining"),
		runs: r.CounterVec("cpmserve_runs_total",
			"Simulation runs executed.").With(),
		runSeconds: r.HistogramVec("cpmserve_run_seconds",
			"Wall-clock seconds per simulation run.",
			metrics.ExponentialBuckets(0.001, 2, 14)).With(),
		queueDepth: r.GaugeVec("cpmserve_queue_depth",
			"Jobs accepted and waiting for a worker.").With(),
		inflight: r.GaugeVec("cpmserve_inflight_jobs",
			"Jobs accepted and not yet finished (queued + running).").With(),
		cacheEntries: r.GaugeVec("cpmserve_cache_entries",
			"Results held in the LRU cache.").With(),
		drainingG: r.GaugeVec("cpmserve_draining",
			"1 while the server is draining, else 0.").With(),
	}
	for i := 0; i < opts.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the registry the server records into (the /metrics
// source).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Stats returns a snapshot of the admission counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheEntries = s.cache.len()
	st.QueueDepth = len(s.queue)
	st.Draining = s.draining
	return st
}

// submitErr classifies an admission refusal.
type submitErr struct {
	code int // HTTP status
	msg  string
}

func (e *submitErr) Error() string { return e.msg }

// outcome tags how an accepted request was satisfied; it becomes the
// X-Cpmserve-Cache response header.
const (
	outcomeHit       = "hit"
	outcomeMiss      = "miss"
	outcomeCoalesced = "coalesced"
)

// submit admits one resolved request and returns the job whose completion
// carries the result: a synthetic pre-completed job for cache hits, the
// shared in-flight leader for coalesced requests, or a freshly queued
// leader. The admission decision — cache lookup, flight registration,
// queue-bound check — is one critical section, so two identical concurrent
// requests can never both become leaders.
func (s *Server) submit(req Request, sc check.Scenario) (*job, string, *submitErr) {
	key := req.CacheKey()
	s.mu.Lock()
	if s.draining {
		s.stats.RejectedDraining++
		s.m.rejectedDrain.Inc()
		s.mu.Unlock()
		return nil, "", &submitErr{code: 503, msg: "serve: draining, not accepting new runs"}
	}
	if res, ok := s.cache.get(key); ok {
		s.stats.Hits++
		s.m.hits.Inc()
		s.mu.Unlock()
		j := &job{req: req, key: key, done: make(chan struct{}), res: res}
		close(j.done)
		return j, outcomeHit, nil
	}
	if leader, ok := s.flights[key]; ok {
		s.stats.Coalesced++
		s.m.coalesced.Inc()
		s.mu.Unlock()
		return leader, outcomeCoalesced, nil
	}
	if s.outstanding >= s.opts.Workers+s.opts.QueueDepth {
		s.stats.RejectedQueueFull++
		s.m.rejectedFull.Inc()
		s.mu.Unlock()
		return nil, "", &submitErr{code: 429, msg: "serve: queue full"}
	}
	// The run's telemetry feeds /metrics under the scenario's canonical
	// name — a bounded label set, since only canonical scenarios are
	// admitted.
	sc.Metrics = s.reg
	j := &job{req: req, sc: sc, key: key, done: make(chan struct{})}
	s.flights[key] = j
	s.queue <- j
	s.outstanding++
	s.stats.Misses++
	s.m.misses.Inc()
	s.m.queueDepth.Set(float64(len(s.queue)))
	s.m.inflight.Set(float64(s.outstanding))
	s.jobsWG.Add(1)
	s.mu.Unlock()
	return j, outcomeMiss, nil
}

// worker runs queued jobs, oldest first, until Close closes the queue.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for j := range s.queue {
		// Count the run before it can finish: a client holding its
		// response must find its run in Stats.
		s.mu.Lock()
		s.stats.Runs++
		s.m.queueDepth.Set(float64(len(s.queue)))
		s.mu.Unlock()
		s.m.runs.Inc()
		if hook := s.opts.RunHook; hook != nil {
			hook(j.req)
		}
		start := time.Now()
		res, err := execute(j)
		s.m.runSeconds.Observe(time.Since(start).Seconds())
		s.finish(j, res, err)
	}
}

// finish publishes a job's result, caches it, and releases the flight so
// later identical requests hit the cache instead of a dead flight.
func (s *Server) finish(j *job, res *result, err error) {
	s.mu.Lock()
	if err == nil {
		s.cache.add(j.key, res)
	}
	delete(s.flights, j.key)
	s.outstanding--
	s.m.inflight.Set(float64(s.outstanding))
	s.m.cacheEntries.Set(float64(s.cache.len()))
	s.mu.Unlock()
	j.res, j.err = res, err
	close(j.done)
	s.jobsWG.Done()
}

// StartDrain flips the server into drain mode: every subsequent submission
// is refused with 503 while accepted runs — queued and in-flight — keep
// going. Idempotent.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.m.drainingG.Set(1)
	s.mu.Unlock()
}

// Drain starts draining and blocks until every accepted run has finished —
// the SIGTERM path: in-flight work completes, nothing new is admitted.
func (s *Server) Drain() {
	s.StartDrain()
	s.jobsWG.Wait()
}

// Close drains and then stops the workers. The server cannot be reused.
// Draining refuses every later submission, so closing the queue races no
// send.
func (s *Server) Close() {
	s.Drain()
	s.closeOnce.Do(func() { close(s.queue) })
	s.workersWG.Wait()
}
