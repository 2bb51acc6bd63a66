package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/sched"
	"refrint/internal/store"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

// ExecuteFunc runs one sweep.  The default is sweep.ExecuteContext; tests
// substitute instrumented implementations to count runs and control timing.
type ExecuteFunc func(ctx context.Context, opts sweep.Options, progress func(sweep.Progress)) (*refrint.SweepResults, error)

// Config tunes the service.  The zero value is usable.
type Config struct {
	// Shards is the number of worker goroutines (default 2).  Each worker
	// runs one sweep at a time; a sweep itself parallelizes internally.
	// Workers steal across queues, so the name is historical: submissions
	// are homed to a worker by key hash but never stuck behind it.
	Shards int
	// QueueDepth scales the pending-execution bound (default 8): each
	// priority class admits Shards*QueueDepth queued sweeps unless
	// ClassQueueDepth overrides it.  Submissions beyond the bound get HTTP
	// 503.
	QueueDepth int
	// ClassQueueDepth, where positive, bounds the queued sweeps of one
	// priority class (indexed by sched.Class) instead of Shards*QueueDepth.
	ClassQueueDepth [sched.NumClasses]int
	// ClassWeights are the weighted-fair dequeue shares per priority class
	// (default sched.DefaultWeights, 16/4/1): with every class backlogged,
	// one dequeue cycle serves that many sweeps of each class, most urgent
	// first.
	ClassWeights [sched.NumClasses]int
	// CacheEntries bounds how many completed sweeps are kept for reuse
	// (default 32).
	CacheEntries int
	// JobHistory bounds how many finished jobs remain pollable (default
	// 1024).  The oldest terminal jobs beyond the bound are forgotten —
	// along with their grip on cached results — so a long-running service
	// does not grow without bound.
	JobHistory int
	// BatchHistory bounds how many finished batches remain pollable
	// (default 256), like JobHistory for /v1/batches handles.
	BatchHistory int
	// SweepWorkers caps the intra-sweep simulation concurrency per job
	// (default: NumCPU divided by Shards, at least 1), so concurrent jobs
	// do not oversubscribe the machine.
	SweepWorkers int
	// EventBuffer bounds each SSE subscriber's pending-event queue
	// (default 64).  Progress events coalesce (latest wins) and overflow
	// drops intermediate events, so a slow subscriber never blocks
	// execution and never grows memory without bound.
	EventBuffer int
	// EventHeartbeat is the keepalive comment interval on SSE streams
	// (default 15s), so idle connections survive proxies.
	EventHeartbeat time.Duration
	// ProgressInterval is how often the lock-free per-entry progress
	// counters are folded into the windowed sims/sec gauge and published
	// as SSE progress events (default 100ms).
	ProgressInterval time.Duration
	// ClientRate, where positive, rate-limits submissions per client label:
	// each client's token bucket refills at ClientRate tokens/second, a
	// sweep submission costs one token and a batch costs one per request.
	// Over-quota submissions get HTTP 429 with a Retry-After hint.  The
	// default (0) disables quotas.
	ClientRate float64
	// ClientBurst is the token-bucket capacity per client (default
	// ceil(ClientRate), minimum 1).  Batches larger than the burst can
	// never be admitted for a rate-limited client.
	ClientBurst int
	// AgeAfter, where positive, turns on queue-wait aging in the scheduler:
	// a sweep queued longer than AgeAfter ages one class up (background
	// into batch, batch into interactive) without losing its client
	// fair-share slot, so interactive floods cannot starve queued
	// low-priority work forever.  The default (0) disables aging.
	AgeAfter time.Duration
	// EventLog bounds the per-topic SSE event log used to replay missed
	// events on Last-Event-ID reconnects (default 64 events per topic).
	EventLog int
	// JobTimeout, where positive, bounds each sweep execution's wall time:
	// the sweep runs under a context deadline and one that outlives it turns
	// terminal failed with a deadline-exceeded reason, freeing its worker.
	// A request's timeout_ms field may only lower the bound, never raise or
	// disable it.  The default (0) imposes no server-wide deadline.
	JobTimeout time.Duration
	// Execute runs a sweep (default sweep.ExecuteContext).
	Execute ExecuteFunc
	// Store, when set, persists completed sweeps and individual simulation
	// cells: restarts serve previously completed sweeps without re-running
	// them, and overlapping sweeps reuse each other's cells.
	Store *store.Store
	// Logger is the structured log sink.  Job lifecycle lines carry the
	// request trace ID, client, class and sweep key, and terminal lines
	// carry the per-phase duration breakdown.  When unset it is derived
	// from Logf (or discards everything if that is unset too).
	Logger *slog.Logger
	// Logf, when set, receives one line per job state transition
	// (printf-style; predates Logger).  When unset it is derived from
	// Logger, so both APIs feed one stream.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 32
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.BatchHistory <= 0 {
		c.BatchHistory = 256
	}
	for class := range c.ClassQueueDepth {
		if c.ClassQueueDepth[class] <= 0 {
			c.ClassQueueDepth[class] = c.Shards * c.QueueDepth
		}
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = max(1, runtime.NumCPU()/c.Shards)
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 64
	}
	if c.EventHeartbeat <= 0 {
		c.EventHeartbeat = 15 * time.Second
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 100 * time.Millisecond
	}
	if c.EventLog <= 0 {
		c.EventLog = 64
	}
	if c.Execute == nil {
		c.Execute = func(ctx context.Context, opts sweep.Options, progress func(sweep.Progress)) (*refrint.SweepResults, error) {
			return sweep.ExecuteContext(ctx, opts, progress)
		}
	}
	switch {
	case c.Logger == nil && c.Logf == nil:
		c.Logger = slog.New(discardHandler{})
		c.Logf = func(string, ...any) {}
	case c.Logger == nil:
		c.Logger = slog.New(logfHandler{f: c.Logf})
	case c.Logf == nil:
		logger := c.Logger
		c.Logf = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
	}
	return c
}

// Server is the sweep service.  It implements http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request-metrics middleware
	sched   *sched.Scheduler
	bus     *eventBus

	baseCtx    context.Context
	baseCancel context.CancelFunc
	loopDone   chan struct{} // closed when the progress tick loop exits

	startedAt time.Time

	// mu guards jobs, jobOrder, batches, batchOrder, cache, nextID,
	// nextBatchID, closed, the metrics counters and every mutable
	// Job/Batch/entry field.  Every scheduler mutation (Submit, Cancel,
	// Promote) happens under mu too, which is what makes admission's
	// capacity-check-then-submit atomic (admitLocked); lock order is always
	// s.mu -> sched's internal mutex.
	mu          sync.Mutex
	jobs        map[string]*Job
	jobOrder    []string
	batches     map[string]*Batch
	batchOrder  []string
	cache       *resultCache
	nextID      int
	nextBatchID int
	closed      bool
	// draining means BeginDrain ran: submissions answer 503 with a
	// Retry-After of drainRetryAfter seconds and /healthz reports closing,
	// while admitted work keeps running to its own terminal state.
	draining        bool
	drainRetryAfter int

	// Metrics counters (see handleMetrics).
	sweepCacheHits    int64                   // submissions answered done immediately (memory or store)
	sweepCacheMisses  int64                   // submissions that enqueued or attached to a live execution
	sweepCacheEvicted [sched.NumClasses]int64 // result-cache evictions by execution class
	// panicsTotal counts recovered panics by site: "sim" (inside a sweep
	// cell), "exec" (the Execute wrapper), "sched" (scheduler callbacks) and
	// "tick" (the SSE publish tick).  Every recovery is also logged with its
	// stack.  jobTimeouts counts executions that hit their deadline, by
	// class.  Both guarded by mu.
	panicsTotal map[string]int64
	jobTimeouts [sched.NumClasses]int64
	// quota is the per-client admission limiter (nil with quotas off).  It
	// has its own mutex and is checked before s.mu is ever taken.
	quota *clientQuota

	// Latency histograms (see histogram.go).  Record paths are lock-free
	// atomics, NOT guarded by mu: schedWait is observed per class by the
	// scheduler's OnDequeue callback, execSeconds per class at the terminal
	// transition, and httpMetrics per (route, code) by the middleware.
	schedWait   [sched.NumClasses]histogram
	execSeconds [sched.NumClasses]histogram
	httpMetrics *httpMetrics

	// simsCompleted counts simulations finished across all sweeps (cell
	// hits included).  It is an atomic, NOT guarded by mu: the per-sim
	// progress callback adds to it lock-free (see progressCallback), and
	// readers fold it into the windowed gauge below on tick or on read.
	simsCompleted atomic.Int64
	// simRate tracks recent completions for the windowed sims/sec gauge;
	// simsFolded is how much of simsCompleted it has absorbed.  Both are
	// guarded by mu and fed via foldSimRateLocked, never from the per-sim
	// callback.
	simRate    *rateWindow
	simsFolded int64
}

// New builds a server and starts its worker pool.  Call Close to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		bus:         newEventBus(cfg.EventBuffer, cfg.EventLog),
		jobs:        make(map[string]*Job),
		batches:     make(map[string]*Batch),
		cache:       newResultCache(cfg.CacheEntries),
		startedAt:   time.Now(),
		simRate:     newRateWindow(time.Minute, time.Now),
		loopDone:    make(chan struct{}),
		quota:       newClientQuota(cfg.ClientRate, cfg.ClientBurst, time.Now),
		httpMetrics: newHTTPMetrics(),
		panicsTotal: make(map[string]int64),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.sched = sched.New(sched.Config{
		Workers:  cfg.Shards,
		Depth:    cfg.ClassQueueDepth,
		Weights:  cfg.ClassWeights,
		AgeAfter: cfg.AgeAfter,
		// Keep the server's view of an aged execution's class in sync.  The
		// callback runs outside the scheduler mutex, so taking s.mu here
		// respects the s.mu -> sched lock order.
		OnAge: func(payload any, from, to sched.Class) {
			e := payload.(*entry)
			s.mu.Lock()
			if !e.state.Terminal() && to < e.class {
				e.class = to
				// Attached jobs follow the execution into its effective
				// class: job views, published events and firehose ?class=
				// filters report where the work actually runs — and a
				// sibling cancel recomputing urgency from j.class (see
				// cancelJobLocked) does not demote the entry right back.
				for _, j := range e.jobs {
					if !j.state.Terminal() && to < j.class {
						j.class = to
					}
				}
			}
			s.mu.Unlock()
			s.cfg.Logf("sweep %s: aged %s -> %s after queue wait", e.key, from, to)
		},
		// OnDequeue runs on the worker goroutine with no scheduler lock
		// held: it feeds the per-class queue-wait histogram and stamps the
		// dequeued phase on every job riding the execution.
		OnDequeue: func(payload any, class sched.Class, wait time.Duration) {
			if class >= 0 && class < sched.NumClasses {
				s.schedWait[class].Observe(wait.Seconds())
			}
			e := payload.(*entry)
			s.mu.Lock()
			markJobsLocked(e, phaseDequeued, time.Now())
			s.mu.Unlock()
		},
		// OnPanic is the scheduler-side containment boundary: a panic that
		// escapes runEntry (or the hooks above) loses only its execution —
		// the worker survives — and the entry is failed here so its jobs
		// reach a terminal state instead of hanging forever.
		OnPanic: func(payload any, recovered any, stack []byte) {
			s.recordPanic("sched", recovered, stack)
			if e, ok := payload.(*entry); ok {
				s.mu.Lock()
				s.finishLocked(e, nil, fmt.Errorf("sweep execution panicked: %v: %w", recovered, errPanicked))
				s.mu.Unlock()
			}
		},
	})
	s.sched.Start(func(payload any) { s.runEntry(payload.(*entry)) })
	go func() {
		defer close(s.loopDone)
		s.progressLoop()
	}()

	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/figures", s.handleFigures)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	s.mux.HandleFunc("GET /v1/batches/{id}/trace", s.handleBatchTrace)
	s.mux.HandleFunc("GET /v1/events", s.handleFirehose)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleGetBatch)
	s.mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancelBatch)
	s.mux.HandleFunc("GET /v1/sims", s.handleSims)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.instrument(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close cancels every in-flight execution and stops the workers.  Pending
// queue entries are drained (and observed cancelled) before Close returns,
// so their terminal events reach still-attached subscribers; then every open
// SSE stream is terminated.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.sched.Close()
	// One final tick: the drain above finished jobs (their terminal events
	// publish inline), but batch terminals are tick-driven and the loop may
	// already have exited on baseCancel — without this, a batch subscriber
	// could lose its terminal event at shutdown.
	s.safeTick()
	s.bus.close()
	<-s.loopDone
}

// BeginDrain flips the server into graceful-shutdown admission: new
// submissions answer 503 with Retry-After (expect rounds up to the hint in
// seconds, so well-behaved clients come back after this instance is gone or
// healthy again) and /healthz reports "closing" with 503 so load balancers
// stop routing here — while everything already admitted keeps running.
// Idempotent; Close still does the hard stop afterwards.
func (s *Server) BeginDrain(expect time.Duration) {
	secs := max(int(math.Ceil(expect.Seconds())), 1)
	s.mu.Lock()
	s.draining = true
	s.drainRetryAfter = secs
	s.mu.Unlock()
	s.cfg.Logf("server: draining, in-flight work has %v to finish", expect)
}

// Draining reports whether BeginDrain has run.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain blocks until every admitted job reaches a terminal state or ctx
// expires (returning the context error).  Call BeginDrain first so new work
// cannot arrive faster than the backlog drains.
func (s *Server) Drain(ctx context.Context) error {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		live := 0
		for _, j := range s.jobs {
			if !j.state.Terminal() {
				live++
			}
		}
		s.mu.Unlock()
		if live == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// effectiveTimeout resolves a request's timeout_ms against the server cap:
// the request may only lower Config.JobTimeout, never raise or disable it.
// Zero means no deadline (only possible with no server cap).
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if limit := s.cfg.JobTimeout; limit > 0 && (d <= 0 || d > limit) {
		return limit
	}
	return d
}

// runEntry executes one shared sweep on a worker shard.
func (s *Server) runEntry(e *entry) {
	s.mu.Lock()
	if e.ctx.Err() != nil || e.state.Terminal() {
		// Cancelled while still queued (or the server is closing).
		s.finishLocked(e, nil, context.Canceled)
		s.mu.Unlock()
		return
	}
	e.state = StateRunning
	now := time.Now()
	e.execStart = now
	for _, j := range e.jobs {
		if j.state == StateQueued {
			j.state = StateRunning
			j.startedAt = now
			j.trace.mark(phaseExecuting, now)
			s.publishJobLocked(j, eventState)
		}
	}
	class := e.class
	s.mu.Unlock()
	s.cfg.Logf("sweep %s: running (%d sims)", e.key, e.total.Load())

	// With a store attached, individual cells already computed by earlier
	// (possibly different) sweeps are served from it instead of simulating,
	// and fresh cells are persisted as they complete.  Persisted artifacts
	// carry the execution's class as their eviction rank, so when the store
	// fills, background results go before batch before interactive.
	opts := e.opts
	if st := s.cfg.Store; st != nil {
		opts.CellLookup, opts.CellPut = st.CellHooksRanked(int(class), s.cfg.Logf)
	}

	// The deadline is layered on e.ctx, so finishLocked can still tell a
	// timeout (execCtx expired, e.ctx fine) from a cancellation (e.ctx
	// itself is dead).
	execCtx, cancelTimeout := e.ctx, context.CancelFunc(func() {})
	if e.timeout > 0 {
		execCtx, cancelTimeout = context.WithTimeout(e.ctx, e.timeout)
	}
	res, err := s.executeGuarded(execCtx, opts, e)
	cancelTimeout()

	// Persist the completed sweep before (and outside) the mutexed state
	// transition: the blob can be large, so the write must not stall
	// handlers or progress callbacks — and once a job is observably done,
	// its result is already durable.
	if err == nil && s.cfg.Store != nil {
		s.mu.Lock()
		markJobsLocked(e, phasePersisting, time.Now())
		s.mu.Unlock()
		if perr := s.cfg.Store.PutRanked(store.KindSweep, e.key, int(class), res); perr != nil {
			s.cfg.Logf("store: persisting sweep %s: %v", e.key, perr)
		}
	}

	s.mu.Lock()
	s.finishLocked(e, res, err)
	s.mu.Unlock()
}

// executeGuarded runs the configured Execute behind a recover guard.  The
// sweep package already converts per-cell panics into errors; this is the
// last line of defense for panics in Execute implementations, progress
// plumbing or store hooks outside the cells — a recovered panic fails the
// job instead of killing the worker.
func (s *Server) executeGuarded(ctx context.Context, opts sweep.Options, e *entry) (res *refrint.SweepResults, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic("exec", r, debug.Stack())
			res, err = nil, fmt.Errorf("sweep execution panicked: %v: %w", r, errPanicked)
		}
	}()
	return s.cfg.Execute(ctx, opts, s.progressCallback(e))
}

// errPanicked marks errors synthesized from recovered panics outside the
// sweep's own per-cell guard, so finishLocked can attribute the failure
// reason without string matching.
var errPanicked = errors.New("panicked")

// recordPanic logs one recovered panic with its stack and bumps the
// refrint_panics_total{site} counter.  Safe from any goroutine that does NOT
// already hold s.mu.
func (s *Server) recordPanic(site string, recovered any, stack []byte) {
	s.cfg.Logger.Error("panic recovered",
		"site", site,
		"panic", fmt.Sprint(recovered),
		"stack", string(stack))
	s.mu.Lock()
	s.panicsTotal[site]++
	s.mu.Unlock()
}

// progressCallback returns the per-simulation progress hook for one
// execution.  This is the server's hottest path — the zero-alloc simulator
// finishes a sim every few milliseconds on every worker — so it takes NO
// locks and allocates nothing: the counters are atomics, and everything
// derived from them (windowed rate, SSE progress events, /metrics) is
// folded on the publish tick or at read time instead.  Out-of-order
// callbacks from concurrent sweep workers are absorbed by the CAS-max loop.
func (s *Server) progressCallback(e *entry) func(sweep.Progress) {
	//refrint:alloc-free
	return func(p sweep.Progress) {
		if t := int64(p.Total); t > 0 && t != e.total.Load() {
			e.total.Store(t)
		}
		next := int64(p.Done)
		for {
			cur := e.done.Load()
			if next <= cur {
				return
			}
			if e.done.CompareAndSwap(cur, next) {
				s.simsCompleted.Add(next - cur)
				return
			}
		}
	}
}

// foldSimRateLocked absorbs lock-free simulation completions into the
// windowed sims/sec gauge.  Called on the publish tick and before /metrics
// reads.  Caller holds the server mutex.
func (s *Server) foldSimRateLocked() {
	total := s.simsCompleted.Load()
	if d := total - s.simsFolded; d > 0 {
		s.simRate.Add(d)
		s.simsFolded = total
	}
}

// progressLoop periodically folds the atomic progress counters into the
// rate gauge and publishes SSE progress events.  It is the only bridge from
// the lock-free per-sim path back into the mutexed world, and it runs at
// ProgressInterval regardless of how fast simulations finish.
func (s *Server) progressLoop() {
	t := time.NewTicker(s.cfg.ProgressInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.safeTick()
		}
	}
}

// safeTick is publishTick behind a recover guard: the tick folds counters
// and marshals snapshots for SSE, and a panic there must kill neither the
// publish loop nor Close.  (publishTick unlocks s.mu by defer, so the mutex
// is released before the recovery here runs.)
func (s *Server) safeTick() {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic("tick", r, debug.Stack())
		}
	}()
	s.publishTick()
}

// publishTick is one iteration of progressLoop.  All snapshot and marshal
// work is skipped while nobody subscribes.
func (s *Server) publishTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldSimRateLocked()
	if !s.bus.active() {
		return
	}
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if j.state.Terminal() || j.entry == nil {
			continue
		}
		s.publishJobProgressLocked(j)
	}
	for _, id := range s.batchOrder {
		if b := s.batches[id]; !b.lastState.Terminal() {
			s.publishBatchLocked(b)
		}
	}
}

// publishJobLocked emits a named event carrying the job's full view.
// Caller holds the server mutex.
func (s *Server) publishJobLocked(j *Job, name string) {
	if !s.bus.hasTopic(jobTopic(j.id)) {
		return
	}
	view := j.snapshot()
	s.bus.publish(name, jobTopic(j.id), j.request.Client, j.class, int64(view.Progress.Done), view)
}

// publishJobProgressLocked emits a slim progress event when the job's live
// done count moved since the last publication.  Caller holds the server
// mutex.
func (s *Server) publishJobProgressLocked(j *Job) {
	if !s.bus.hasTopic(jobTopic(j.id)) {
		return // leave lastEventDone stale: a later audience gets the delta
	}
	done, total := int(j.entry.done.Load()), int(j.entry.total.Load())
	if done == j.lastEventDone {
		return
	}
	j.lastEventDone = done
	s.bus.publish(eventProgress, jobTopic(j.id), j.request.Client, j.class, int64(done), progressEvent{
		ID: j.id, Kind: "sweep", State: j.state,
		Progress: progressView(done, total, j.state),
	})
}

// publishBatchLocked emits batch state transitions (full view) and progress
// deltas (slim event) by diffing against the last published snapshot.  With
// no audience for the topic it does nothing at all — no snapshot, and no
// diff-state advance, so the transition still publishes once somebody
// subscribes.  Caller holds the server mutex.
func (s *Server) publishBatchLocked(b *Batch) {
	if !s.bus.hasTopic(batchTopic(b.id)) {
		return
	}
	view := b.snapshotLocked()
	if view.State != b.lastState {
		name := eventState
		if view.State.Terminal() {
			name = string(view.State)
		}
		b.lastState = view.State
		b.lastEventDone = view.Progress.Done
		s.bus.publish(name, batchTopic(b.id), b.client, b.class, int64(view.Progress.Done), view)
		return // the state event carries the progress; skip a duplicate
	}
	if view.Progress.Done != b.lastEventDone {
		b.lastEventDone = view.Progress.Done
		s.bus.publish(eventProgress, batchTopic(b.id), b.client, b.class, int64(view.Progress.Done), progressEvent{
			ID: b.id, Kind: "batch", State: view.State, Progress: view.Progress,
		})
	}
}

// finishLocked moves an execution and its attached jobs to a terminal state.
// Caller holds the server mutex.
func (s *Server) finishLocked(e *entry, res *refrint.SweepResults, err error) {
	if e.state.Terminal() {
		return
	}
	now := time.Now()
	if !e.execStart.IsZero() {
		// The execution occupied a worker (done, failed, or cancelled
		// mid-run — never for a cancel while still queued).
		s.execSeconds[e.class].Observe(now.Sub(e.execStart).Seconds())
	}
	switch {
	case err == nil:
		e.state = StateDone
		e.res = res
		e.done.Store(e.total.Load())
		for _, cl := range s.cache.markCompleted(e) {
			s.sweepCacheEvicted[cl]++
		}
		s.cfg.Logf("sweep %s: done", e.key)
	case e.ctx.Err() != nil:
		// The execution's own context died (client cancel or shutdown).
		// Checked before the deadline: a sweep cancelled while also racing
		// its per-job timeout is a cancellation, not a timeout.
		e.state = StateCancelled
		e.err = context.Canceled
		s.cache.drop(e)
		s.cfg.Logf("sweep %s: cancelled", e.key)
	case errors.Is(err, context.DeadlineExceeded):
		e.state = StateFailed
		e.err = fmt.Errorf("deadline exceeded after %v", e.timeout)
		e.reason = reasonDeadline
		s.jobTimeouts[e.class]++
		s.cache.drop(e)
		s.cfg.Logf("sweep %s: failed: deadline exceeded after %v", e.key, e.timeout)
	case errors.Is(err, context.Canceled):
		e.state = StateCancelled
		e.err = context.Canceled
		s.cache.drop(e)
		s.cfg.Logf("sweep %s: cancelled", e.key)
	default:
		e.state = StateFailed
		e.err = err
		var pe *sweep.PanicError
		if errors.As(err, &pe) {
			// A panic contained inside a sweep cell: account and log it
			// here — sweep cannot reach the server's counters or logger.
			e.reason = reasonPanic
			s.panicsTotal["sim"]++
			s.cfg.Logger.Error("panic recovered",
				"site", "sim",
				"app", pe.App,
				"cell", pe.Cell,
				"panic", fmt.Sprint(pe.Value),
				"stack", string(pe.Stack))
		} else if errors.Is(err, errPanicked) {
			e.reason = reasonPanic // already counted and logged at recovery
		}
		s.cache.drop(e)
		s.cfg.Logf("sweep %s: failed: %v", e.key, err)
	}
	for _, j := range e.jobs {
		if j.state.Terminal() {
			continue
		}
		j.state = e.state
		j.err = e.err
		j.reason = e.reason
		j.endedAt = now
		if j.startedAt.IsZero() && e.state == StateDone {
			j.startedAt = now
		}
		if e.reason == reasonDeadline {
			j.trace.mark(phaseDeadline, now)
		}
		j.trace.mark(string(e.state), now)
		j.freezeProgress()
		s.publishJobLocked(j, string(j.state))
		s.logTerminalLocked(j, now)
	}
	e.cancel() // release the context's resources in every path
}

// Failure reasons exposed in job views, distinguishing the robustness
// machinery's verdicts from ordinary execution errors.
const (
	reasonPanic    = "panic"
	reasonDeadline = "deadline exceeded"
)

// logTerminalLocked emits the structured terminal log line for one job,
// carrying the phase-duration breakdown of its whole lifecycle.  Caller
// holds the server mutex.
func (s *Server) logTerminalLocked(j *Job, now time.Time) {
	v := j.traceView(now)
	s.jobLogger(j).Info("job "+string(j.state),
		"total_seconds", v.TotalSeconds,
		"phases", j.phaseSummary(now))
}

// --- HTTP handlers ---

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// retryAfterHint estimates, in whole seconds, how soon a full class queue is
// likely to have room: queued work divided by the class's observed drain rate
// since startup, clamped to [1s, 60s].  Before any dequeue has been observed
// the hint is a flat 5s.  It is a hint for well-behaved clients, not a
// promise — admission is still first-come when capacity frees up.
func (s *Server) retryAfterHint(class sched.Class) int {
	st := s.sched.Stats()
	uptime := time.Since(s.startedAt).Seconds()
	if st.WaitCount[class] <= 0 || uptime <= 0 {
		return 5
	}
	rate := float64(st.WaitCount[class]) / uptime // dequeues per second
	hint := int(math.Ceil(float64(st.Queued[class]) / rate))
	return min(max(hint, 1), 60)
}

// classFor resolves an optional wire priority label, falling back to def.
func classFor(label string, def sched.Class) (sched.Class, error) {
	if label == "" {
		return def, nil
	}
	return sched.ParseClass(label)
}

// handleSubmit implements POST /v1/sweeps: a one-member admission plan
// (see admit.go), answered with the job's view — 200 when it was served
// done from cache, 202 otherwise.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	received := time.Now()
	reqID := requestTraceID(r)
	w.Header().Set("X-Request-Id", reqID)
	var req refrint.SweepRequest
	if !decodeRequest(w, r, 1<<20, &req) {
		return
	}
	p, err := s.planSweep(req, sched.Interactive)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p.trace = submissionTrace(reqID, received, time.Now())
	a, aerr := s.prepareAdmission([]sweepPlan{p})
	if aerr != nil {
		writeAdmitError(w, aerr)
		return
	}
	s.mu.Lock()
	jobs, aborts, aerr := s.admitLocked(a)
	if aerr != nil {
		s.mu.Unlock()
		s.refuse(w, a, aborts, aerr)
		return
	}
	status := http.StatusAccepted
	if jobs[0].cacheHit {
		status = http.StatusOK
	}
	view := jobs[0].snapshot()
	s.mu.Unlock()

	w.Header().Set("Location", "/v1/sweeps/"+view.ID)
	writeJSON(w, status, view)
}

// submitJobLocked creates one job for a planned request: served from cache,
// attached to the in-flight execution of the same key, or enqueued as a
// fresh execution.  It never promotes: promotion is decided by the
// admission plan alone (reserveLocked).  class is the job's own priority;
// entryClass is the class a fresh execution enqueues at — the same, except
// in a plan whose later duplicate of this key is more urgent (creating at
// the final class directly keeps capacity accounting exact).  timeout
// bounds a FRESH execution's wall time (0 = none); a job attaching to an
// in-flight execution inherits that execution's deadline — singleflight
// shares one run, so the first submitter's bound governs it.  It reports
// false — creating nothing — when the class queue is full.  Caller holds
// the server mutex.
func (s *Server) submitJobLocked(req refrint.SweepRequest, opts sweep.Options, key string, class, entryClass sched.Class, timeout time.Duration, tr trace) (*Job, bool) {
	s.nextID++
	job := &Job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		key:       key,
		request:   req,
		class:     class,
		state:     StateQueued,
		createdAt: time.Now(),
		trace:     tr,
	}
	job.trace.mark(phaseAdmitted, job.createdAt)

	e, hit := s.cache.lookup(key)
	if hit {
		// Singleflight: ride the execution already in flight, or serve the
		// cached result outright.
		job.entry = e
		switch e.state {
		case StateDone:
			// Served from cache: the job is born terminal and is not
			// attached to e.jobs (finishLocked already ran; attaching
			// would only pin the job in memory for the cache's lifetime).
			job.state = StateDone
			job.cacheHit = true
			job.startedAt = job.createdAt
			job.endedAt = job.createdAt
			shortcut := phaseCacheHit
			if e.revived {
				shortcut = phaseRevived
			}
			job.trace.mark(shortcut, job.createdAt)
			job.trace.mark(string(StateDone), job.createdAt)
			job.freezeProgress()
			s.sweepCacheHits++
			s.logTerminalLocked(job, job.createdAt)
		case StateRunning:
			e.jobs = append(e.jobs, job)
			job.state = StateRunning
			job.startedAt = job.createdAt
			job.trace.mark(phaseExecuting, job.createdAt)
			e.refs++
			s.sweepCacheMisses++
		default:
			e.jobs = append(e.jobs, job)
			job.trace.mark(phaseQueued, job.createdAt)
			e.refs++
			s.sweepCacheMisses++
		}
	} else {
		s.sweepCacheMisses++
		ctx, cancel := context.WithCancel(s.baseCtx)
		e = &entry{
			key:     key,
			opts:    opts,
			ctx:     ctx,
			cancel:  cancel,
			class:   entryClass,
			state:   StateQueued,
			timeout: timeout,
			jobs:    []*Job{job},
			refs:    1,
		}
		e.total.Store(int64(opts.Size()))
		job.entry = e
		h, ok := s.sched.Submit(key, req.Client, entryClass, e)
		if !ok {
			cancel()
			return nil, false
		}
		e.handle = h
		job.trace.mark(phaseQueued, job.createdAt)
		s.cache.put(e)
		s.cfg.Logf("sweep %s: queued %s (%d sims)", key, entryClass, e.total.Load())
	}
	s.jobLogger(job).Debug("job admitted", "state", string(job.state))
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	s.evictJobsLocked()
	// Announce the newborn job (and, for a cache hit, its immediate
	// completion) to firehose subscribers; nobody can be subscribed to the
	// job's own topic before its id is returned.
	s.publishJobLocked(job, eventState)
	if job.state.Terminal() {
		s.publishJobLocked(job, string(job.state))
	}
	return job, true
}

// reviveStoredSweep loads a previously persisted sweep from the store into
// the cache as a completed entry, so submissions and result fetches after a
// restart are served without re-running anything.  It returns the (now
// cached) results when the key resolves to a completed sweep.  It must be
// called WITHOUT the server mutex held: the blob read and decode can be
// large, and — like the persist in runEntry — must not stall handlers or
// progress callbacks.  Concurrent revivals of one key are harmless; the
// first installed entry wins.
func (s *Server) reviveStoredSweep(key string) (*refrint.SweepResults, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	s.mu.Lock()
	if e, ok := s.cache.lookup(key); ok {
		var res *refrint.SweepResults
		if e.state == StateDone {
			res = e.res
		}
		s.mu.Unlock()
		return res, res != nil
	}
	s.mu.Unlock()

	var res refrint.SweepResults
	if !s.cfg.Store.Get(store.KindSweep, key, &res) {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.cache.lookup(key); ok {
		// Lost a race to a concurrent revival or execution of the same key.
		if cur.state == StateDone {
			return cur.res, true
		}
		return nil, false
	}
	s.installDoneEntryLocked(key, &res)
	s.cfg.Logf("sweep %s: restored from store", key)
	return &res, true
}

// installDoneEntryLocked caches an already-completed sweep result as a done
// entry, so the next submission of its key is a pure cache hit.  Caller
// holds the server mutex.
func (s *Server) installDoneEntryLocked(key string, res *refrint.SweepResults) {
	e := &entry{
		key:    key,
		opts:   res.Options,
		ctx:    context.Background(),
		cancel: func() {},
		// Revived results are already durable in the store, so they are the
		// cheapest thing in the cache to lose: rank them for eviction first.
		class:   sched.Background,
		state:   StateDone,
		res:     res,
		revived: true,
	}
	e.total.Store(int64(res.Options.Size()))
	e.done.Store(e.total.Load())
	s.cache.put(e)
	for _, cl := range s.cache.markCompleted(e) {
		s.sweepCacheEvicted[cl]++
	}
}

// evictJobsLocked forgets the oldest terminal jobs beyond the history
// bound, releasing their references to (possibly cache-evicted) results.
// Live jobs are never evicted.  Caller holds the server mutex.
func (s *Server) evictJobsLocked() {
	excess := len(s.jobOrder) - s.cfg.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		if excess > 0 && s.jobs[id].state.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// lookupJob resolves {id} for the per-job handlers.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return job, true
}

// handleGetJob implements GET /v1/sweeps/{id}: the poll endpoint.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	view := job.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleListJobs implements GET /v1/sweeps: every job, oldest first.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		views = append(views, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: views})
}

// handleCancel implements DELETE /v1/sweeps/{id}.  Cancelling the last
// interested job aborts the underlying sweep; earlier cancellations only
// detach that job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	e := s.cancelJobLocked(job)
	view := job.snapshot()
	s.mu.Unlock()
	if e != nil {
		e.cancel()
		s.cfg.Logf("sweep %s: cancel requested", e.key)
	}
	writeJSON(w, http.StatusOK, view)
}

// moveEntryLocked moves a queued execution to another class, updating its
// handle.  A no-op when the scheduler declines (the entry is no longer
// queued, or the target class is full).  Caller holds the server mutex.
func (s *Server) moveEntryLocked(e *entry, to sched.Class) {
	if to == e.class {
		return
	}
	if h, ok := s.sched.Promote(e.handle, to); ok {
		e.handle, e.class = h, to
		s.cfg.Logf("sweep %s: moved to %s", e.key, to)
	}
}

// cancelJobLocked cancels one job.  When that job was the execution's last
// interested one, the execution is aborted: a still-queued execution is
// pulled out of the scheduler right here — freeing its bounded queue slot at
// cancel time, never leaving dead work camping on capacity — and finished;
// a running one must be stopped through its context, which the caller does
// by invoking cancel() on the returned entry after releasing the mutex.
// When other jobs remain interested, a queued execution is demoted to the
// most urgent class they actually asked for, so cancelled urgency does not
// keep camping on an urgent class's bounded slot.  Terminal jobs are left
// untouched.  Caller holds the server mutex.
func (s *Server) cancelJobLocked(job *Job) *entry {
	if job.state.Terminal() {
		return nil
	}
	job.state = StateCancelled
	job.err = context.Canceled
	job.endedAt = time.Now()
	job.trace.mark(string(StateCancelled), job.endedAt)
	job.freezeProgress()
	s.publishJobLocked(job, string(StateCancelled))
	s.logTerminalLocked(job, job.endedAt)
	e := job.entry
	e.refs--
	if e.refs > 0 {
		if e.state == StateQueued {
			want := sched.Class(-1)
			for _, j := range e.jobs {
				if !j.state.Terminal() && (want < 0 || j.class < want) {
					want = j.class
				}
			}
			if want > e.class {
				s.moveEntryLocked(e, want)
			}
		}
		return nil
	}
	if e.state.Terminal() {
		return nil
	}
	s.cache.drop(e) // no new jobs may attach to a doomed execution
	if s.sched.Cancel(e.handle) {
		// Still queued: the slot is already freed and no worker will ever
		// pop this entry, so it finishes here and now.
		s.finishLocked(e, nil, context.Canceled)
		return nil
	}
	return e
}

// handleFigures implements GET /v1/sweeps/{id}/figures: the Table 6.1 and
// Figures 6.1-6.4 data series of a completed sweep.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	res, ok := s.completedResults(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, res.FiguresExport())
}

// handleResults implements GET /v1/sweeps/{id}/results: the raw per-run
// export of a completed sweep (the same payload refrint-sweep can archive).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	res, ok := s.completedResults(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, res.Export())
}

// completedResults fetches the results behind {id}, which may be a job id or
// a canonical sweep key.  Keys resolve through the in-memory cache and then
// the persistent store, so a restarted server serves completed sweeps by key
// without any job existing.  Jobs that are not (yet) done are rejected.
func (s *Server) completedResults(w http.ResponseWriter, r *http.Request) (*refrint.SweepResults, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		// Not a job: try it as a sweep key (cache first, then store — the
		// store read happens outside the mutex).  A key whose execution is
		// still in flight answers 409 like the job-id path, so clients can
		// tell "still running" from "never existed".
		var res *refrint.SweepResults
		var inflight State
		if e, found := s.cache.lookup(id); found {
			if e.state == StateDone {
				res = e.res
			} else {
				inflight = e.state
			}
		}
		s.mu.Unlock()
		if res == nil && inflight == "" {
			res, _ = s.reviveStoredSweep(id)
		}
		if res != nil {
			return res, true
		}
		if inflight != "" {
			writeError(w, http.StatusConflict, "sweep %s is %s, not done", id, inflight)
			return nil, false
		}
		writeError(w, http.StatusNotFound, "no job or completed sweep %q", id)
		return nil, false
	}
	state := job.state
	var res *refrint.SweepResults
	if job.entry != nil {
		res = job.entry.res
	}
	s.mu.Unlock()
	if state != StateDone || res == nil {
		writeError(w, http.StatusConflict, "job %s is %s, not done", job.id, state)
		return nil, false
	}
	return res, true
}

// simCatalog is the payload of GET /v1/sims.
type simCatalog struct {
	Applications     []simApp  `json:"applications"`
	Policies         []string  `json:"policies"`
	RetentionTimesUS []float64 `json:"retention_times_us"`
	Presets          []string  `json:"presets"`
}

type simApp struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	Input string `json:"input"`
	Class string `json:"class"`
}

// handleSims implements GET /v1/sims: the catalog of everything a sweep
// request may reference — applications, policy labels, retention times and
// presets.
func (s *Server) handleSims(w http.ResponseWriter, r *http.Request) {
	cat := simCatalog{
		RetentionTimesUS: config.RetentionTimesUS(),
		Presets:          []string{"scaled", "fullsize"},
	}
	apps := workload.Apps()
	for _, name := range workload.AppNames() {
		p := apps[name]
		cat.Applications = append(cat.Applications, simApp{
			Name:  p.Name,
			Suite: p.Suite,
			Input: p.Input,
			Class: p.PaperClass.String(),
		})
	}
	for _, p := range config.SweepPolicies() {
		cat.Policies = append(cat.Policies, p.String())
	}
	writeJSON(w, http.StatusOK, cat)
}

// healthz is the payload of GET /healthz.
type healthz struct {
	// Status is "ok", "degraded" (the store lost its disk and is running
	// memory-only; Cause says why) or "closing" (draining or shut down).
	Status string `json:"status"`
	// Cause is the first write error that degraded the store ("degraded"
	// status only).
	Cause    string `json:"cause,omitempty"`
	Jobs     int    `json:"jobs"`
	Queued   int    `json:"queued"`
	Inflight int    `json:"inflight"`
	Cached   int    `json:"cached"`
}

// handleHealthz implements GET /healthz.  Status codes follow the statuses:
// "ok" and "degraded" answer 200 — a degraded server still serves sweeps,
// results just do not survive a restart — while "closing" answers 503 so
// load balancers stop routing to an instance on its way out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	cached, inflight := s.cache.stats()
	h := healthz{
		Status:   "ok",
		Jobs:     len(s.jobs),
		Queued:   s.sched.Queued(),
		Inflight: inflight,
		Cached:   cached,
	}
	closing := s.draining || s.closed
	s.mu.Unlock()
	code := http.StatusOK
	// The store has its own mutex; checked outside s.mu like every other
	// store call on a handler path.
	if st := s.cfg.Store; st != nil {
		if deg, cause := st.Degraded(); deg {
			h.Status = "degraded"
			h.Cause = cause
		}
	}
	if closing {
		h.Status = "closing"
		h.Cause = ""
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
