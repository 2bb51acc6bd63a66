package server

import (
	"fmt"
	"net/http"
	"time"

	"refrint"
	"refrint/internal/sched"
)

// Batch groups the jobs of one atomic multi-sweep submission behind a single
// handle.  Live members are held as Job pointers so aggregation keeps
// working even after individual jobs age out of the pollable history; a
// member that reaches a terminal state is frozen into its JobView and the
// pointer dropped, so batches never pin result-bearing entries beyond the
// caches' own bounds.  The server mutex guards all of it.
type Batch struct {
	id        string
	class     sched.Class
	client    string
	members   []batchMember
	createdAt time.Time

	// lastState/lastEventDone are what the event bus last published for
	// this batch; the publish tick diffs fresh snapshots against them (see
	// Server.publishBatchLocked).
	lastState     State
	lastEventDone int
}

// batchMember is one job of a batch: live (job != nil) or frozen
// (view/trace).
type batchMember struct {
	job   *Job
	view  JobView
	trace TraceView
}

// freezeLocked pins the member's terminal view and trace and drops the Job
// pointer.  Caller holds the server mutex and has checked the job is
// terminal.
func (m *batchMember) freezeLocked() {
	m.view = m.job.snapshot()
	m.trace = m.job.traceView(m.job.endedAt)
	m.job = nil
}

// memberViewLocked returns the member's current view, freezing it on the first
// sight of a terminal state.  Caller holds the server mutex.
func (m *batchMember) memberViewLocked() JobView {
	if m.job != nil {
		if v := m.job.snapshot(); !v.State.Terminal() {
			return v
		}
		m.freezeLocked()
	}
	return m.view
}

// memberTrace returns the member's lifecycle timeline, live or frozen.
// Caller holds the server mutex.
func (m *batchMember) memberTrace(now time.Time) TraceView {
	if m.job != nil {
		return m.job.traceView(now)
	}
	return m.trace
}

// BatchRequest is the JSON body of POST /v1/batches: N sweep requests
// submitted atomically — either every request is admitted (cache hits,
// attaches and fresh executions alike) or none is.
type BatchRequest struct {
	// Priority is the default scheduling class of the batch's requests
	// ("batch" when empty); a request's own priority field overrides it.
	Priority string `json:"priority,omitempty"`
	// Client labels the submitting tenant for fair-share scheduling; a
	// request's own client field overrides it.
	Client string `json:"client,omitempty"`
	// Requests are the sweeps to submit.
	Requests []refrint.SweepRequest `json:"requests"`
}

// BatchView is the aggregated JSON form of a batch.
type BatchView struct {
	ID string `json:"id"`
	// State aggregates the member jobs: queued until any starts, running
	// while any is live, and once all are terminal: failed if any failed,
	// else cancelled if any was cancelled, else done.
	State    State  `json:"state"`
	Priority string `json:"priority"`
	Client   string `json:"client,omitempty"`
	// Counts tallies member jobs by lifecycle state.
	Counts map[string]int `json:"counts"`
	// Progress sums simulation progress across member jobs.
	Progress  ProgressView `json:"progress"`
	Jobs      []JobView    `json:"jobs"`
	CreatedAt time.Time    `json:"created_at"`
}

// snapshotLocked renders the batch for the API.  Caller holds the server mutex.
func (b *Batch) snapshotLocked() BatchView {
	v := BatchView{
		ID:        b.id,
		Priority:  b.class.String(),
		Client:    b.client,
		Counts:    make(map[string]int, 5),
		CreatedAt: b.createdAt,
	}
	done, total := 0, 0
	allTerminal := true
	var anyFailed, anyCancelled, anyStarted bool
	for i := range b.members {
		jv := b.members[i].memberViewLocked()
		v.Jobs = append(v.Jobs, jv)
		v.Counts[string(jv.State)]++
		done += jv.Progress.Done
		total += jv.Progress.Total
		switch jv.State {
		case StateFailed:
			anyFailed = true
		case StateCancelled:
			anyCancelled = true
		}
		if !jv.State.Terminal() {
			allTerminal = false
		}
		// Cancelled members don't count as started: a queued job can be
		// cancelled without a single simulation having run.
		if jv.State == StateRunning || jv.State == StateDone || jv.State == StateFailed {
			anyStarted = true
		}
	}
	switch {
	case allTerminal && anyFailed:
		v.State = StateFailed
	case allTerminal && anyCancelled:
		v.State = StateCancelled
	case allTerminal:
		v.State = StateDone
	case anyStarted:
		v.State = StateRunning
	default:
		v.State = StateQueued
	}
	v.Progress = progressView(done, total, v.State)
	return v
}

// handleSubmitBatch implements POST /v1/batches: an N-member admission plan
// (see admit.go) wrapped in one Batch handle.  Admission is atomic: a batch
// either lands whole or leaves no trace.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	received := time.Now()
	reqID := requestTraceID(r)
	w.Header().Set("X-Request-Id", reqID)
	var breq BatchRequest
	if !decodeRequest(w, r, 8<<20, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one request")
		return
	}
	if err := validateClient(breq.Client); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defClass, err := classFor(breq.Priority, sched.Batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	plans := make([]sweepPlan, len(breq.Requests))
	for i, sub := range breq.Requests {
		if sub.Client == "" {
			sub.Client = breq.Client
		}
		if plans[i], err = s.planSweep(sub, defClass); err != nil {
			writeError(w, http.StatusBadRequest, "requests[%d]: %v", i, err)
			return
		}
	}
	// Each member gets its own trace keyed off the request's trace ID, so
	// one batch submission fans out as reqID.0, reqID.1, ... in logs and
	// trace timelines.
	validated := time.Now()
	for i := range plans {
		plans[i].trace = submissionTrace(fmt.Sprintf("%s.%d", reqID, i), received, validated)
	}
	a, aerr := s.prepareAdmission(plans)
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
	s.nextBatchID++
	b := &Batch{
		id:        fmt.Sprintf("batch-%06d", s.nextBatchID),
		class:     defClass,
		client:    breq.Client,
		createdAt: time.Now(),
	}
	for _, job := range jobs {
		b.members = append(b.members, batchMember{job: job})
	}
	s.batches[b.id] = b
	s.batchOrder = append(s.batchOrder, b.id)
	view := b.snapshotLocked()
	// Seed the event-bus diff state with the creation snapshot: subscribers
	// get it as their connect-time "state" event, so the tick only needs to
	// publish changes from here on.  The creation itself is announced to
	// firehose subscribers — including an immediate terminal for a batch
	// born done off cache hits, which the tick would otherwise never see.
	// This runs before evictBatchesLocked: a terminal-at-birth batch that
	// overflows the history is evicted right here, and eviction's own
	// last-chance publish must see lastState already terminal, not emit a
	// second, out-of-order terminal.
	b.lastState = view.State
	b.lastEventDone = view.Progress.Done
	if s.bus.hasTopic(batchTopic(b.id)) {
		s.bus.publish(eventState, batchTopic(b.id), b.client, b.class, int64(view.Progress.Done), view)
		if view.State.Terminal() {
			s.bus.publish(string(view.State), batchTopic(b.id), b.client, b.class, int64(view.Progress.Done), view)
		}
	}
	s.evictBatchesLocked()
	s.mu.Unlock()
	s.logf("batch %s: %d jobs (%s)", b.id, len(view.Jobs), view.Priority)

	status := http.StatusAccepted
	if view.State == StateDone {
		status = http.StatusOK // every member was a cache hit
	}
	w.Header().Set("Location", "/v1/batches/"+view.ID)
	writeJSON(w, status, view)
}

// handleGetBatch implements GET /v1/batches/{id}: aggregated poll.
func (s *Server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	view := b.snapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleCancelBatch implements DELETE /v1/batches/{id}: cancel every
// non-terminal member job.  Queued executions leave the scheduler (and free
// their queue slots) immediately; running ones are aborted via context.
func (s *Server) handleCancelBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	var aborts []*entry
	for i := range b.members {
		if j := b.members[i].job; j != nil {
			if e := s.cancelJobLocked(j); e != nil {
				aborts = append(aborts, e)
			}
		}
	}
	view := b.snapshotLocked()
	s.mu.Unlock()
	for _, e := range aborts {
		e.cancel()
		s.logf("sweep %s: cancel requested", e.key)
	}
	writeJSON(w, http.StatusOK, view)
}

// evictBatchesLocked freezes every terminal member — batches must not pin
// result-bearing entries past the caches' own bounds even when nobody polls
// them, so freezing runs on every batch submission, not only under history
// pressure — then forgets the oldest terminal batches beyond the history
// bound.  Live batches are never evicted.  Caller holds the server mutex.
func (s *Server) evictBatchesLocked() {
	terminal := make(map[string]bool, len(s.batchOrder))
	for _, id := range s.batchOrder {
		b := s.batches[id]
		done := true
		for i := range b.members {
			m := &b.members[i]
			if m.job != nil && m.job.state.Terminal() {
				m.freezeLocked()
			}
			if m.job != nil {
				done = false
			}
		}
		terminal[id] = done
	}
	excess := len(s.batchOrder) - s.cfg.BatchHistory
	if excess <= 0 {
		return
	}
	kept := s.batchOrder[:0]
	for _, id := range s.batchOrder {
		if excess > 0 && terminal[id] {
			// Last chance to publish the terminal event: the publish tick
			// only sees batches still in the map, so an attached subscriber
			// would otherwise wait forever on a stream whose batch is gone.
			if b := s.batches[id]; !b.lastState.Terminal() {
				s.publishBatchLocked(b)
			}
			delete(s.batches, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.batchOrder = kept
}
