package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// This file is the one admission path.  POST /v1/sweeps is a one-member plan
// and POST /v1/batches an N-member plan; both run the same steps:
//
//	planSweep         validate each request and resolve key, class, timeout
//	prepareAdmission  charge quota for every member or none, revive stored
//	                  sweeps (outside s.mu: store reads must not stall it)
//	admitLocked       drain check, capacity-and-promotion plan, job
//	                  creation, rollback of a partly admitted plan
//
// and a refusal at any step undoes the quota charge before answering.

// sweepPlan is one validated sweep request, ready for admission.
type sweepPlan struct {
	req     refrint.SweepRequest
	opts    sweep.Options
	key     string
	class   sched.Class // the job's own priority
	timeout time.Duration
	trace   trace
}

// planSweep validates one request — client label, priority label (def when
// the request names none) and options — and resolves what admission needs:
// the options with Workers capped at Config.SweepWorkers, the canonical key
// and the effective timeout.
func (s *Server) planSweep(req refrint.SweepRequest, def sched.Class) (sweepPlan, error) {
	if err := validateClient(req.Client); err != nil {
		return sweepPlan{}, err
	}
	class, err := classFor(req.Priority, def)
	if err != nil {
		return sweepPlan{}, err
	}
	opts, err := req.Options()
	if err != nil {
		return sweepPlan{}, err
	}
	if s.cfg.SweepWorkers > 0 && opts.Workers > s.cfg.SweepWorkers {
		opts.Workers = s.cfg.SweepWorkers
	}
	return sweepPlan{req: req, opts: opts, key: opts.Key(), class: class,
		timeout: s.effectiveTimeout(req.TimeoutMS)}, nil
}

// submissionTrace starts the timeline of one planned member.
func submissionTrace(id string, received, validated time.Time) trace {
	tr := trace{id: id}
	tr.mark(phaseReceived, received)
	tr.mark(phaseValidated, validated)
	return tr
}

// decodeRequest decodes a JSON request body of at most limit bytes into v,
// rejecting unknown fields; it answers 400 and reports false on failure.
func decodeRequest(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// admission is one submission on its way in: the planned members plus what
// prepareAdmission gathered outside the server mutex.
type admission struct {
	plans []sweepPlan
	// entryClass is the class each key's execution lands in: identical keys
	// share one execution (singleflight), which runs at the most urgent
	// class among their occurrences.
	entryClass map[string]sched.Class
	// charged is the quota charge per client, refunded on refusal.
	charged map[string]int
	// revived holds stored results by key.  They are kept here rather than
	// trusted to stay in the result cache: a plan with more stored keys than
	// the cache holds would otherwise evict its own revivals before use.
	revived map[string]*refrint.SweepResults
}

// admitError is a refused admission: HTTP status, Retry-After hint in whole
// seconds (0 sends none) and message.
type admitError struct {
	status     int
	retryAfter int
	msg        string
}

// writeAdmitError answers a refused admission.
func writeAdmitError(w http.ResponseWriter, e *admitError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(e.retryAfter))
	}
	writeError(w, e.status, "%s", e.msg)
}

// prepareAdmission does the unlocked half of admission.  It charges one
// quota token per member to the member's client, all-or-nothing across the
// plan.  The charge lands at submission time, so members later served from
// cache still count (this is a submission-rate limit); every refusal after
// this point refunds it.  It then revives stored sweeps so that persisted
// work never consumes queue capacity.  Call it without the server mutex.
func (s *Server) prepareAdmission(plans []sweepPlan) (*admission, *admitError) {
	a := &admission{plans: plans, entryClass: make(map[string]sched.Class, len(plans))}
	for _, p := range plans {
		if c, ok := a.entryClass[p.key]; !ok || p.class < c {
			a.entryClass[p.key] = p.class
		}
	}
	if s.quota != nil {
		a.charged = make(map[string]int, 1)
		for _, p := range plans {
			a.charged[p.req.Client]++
		}
		if ok, denied, wait := s.quota.allow(a.charged); !ok {
			return nil, &admitError{
				status:     http.StatusTooManyRequests,
				retryAfter: retryAfterSeconds(wait),
				msg:        fmt.Sprintf("client %q is over its submission rate, retry later", denied),
			}
		}
	}
	if s.cfg.Store != nil {
		a.revived = make(map[string]*refrint.SweepResults, len(plans))
		for _, p := range plans {
			if _, ok := a.revived[p.key]; ok {
				continue
			}
			if res, ok := s.reviveStoredSweep(p.key); ok {
				a.revived[p.key] = res
			}
		}
	}
	return a, nil
}

// admitLocked does the locked half of admission: the drain check, the
// capacity-and-promotion plan and the creation of one job per member.  It
// admits every member or none.  On refusal it returns the entries whose
// contexts the caller must cancel after releasing the mutex (see refuse),
// and the error to answer with.  Caller holds the server mutex.
func (s *Server) admitLocked(a *admission) (jobs []*Job, aborts []*entry, err *admitError) {
	if s.closed || s.draining {
		return nil, nil, &admitError{
			status:     http.StatusServiceUnavailable,
			retryAfter: s.drainRetryAfter,
			msg:        "server is shutting down",
		}
	}
	if err := s.reserveLocked(a); err != nil {
		return nil, nil, err
	}
	jobs = make([]*Job, 0, len(a.plans))
	for _, p := range a.plans {
		// Re-install a revived result the cache may have evicted since (or
		// during) the revive loop, so this member is served as a hit.
		if res := a.revived[p.key]; res != nil {
			if _, hit := s.cache.lookup(p.key); !hit {
				s.installDoneEntryLocked(p.key, res)
			}
		}
		class := a.entryClass[p.key]
		job, ok := s.submitJobLocked(p.req, p.opts, p.key, p.class, class, p.timeout, p.trace)
		if !ok {
			// Reachable only when queue-wait aging moved items into this
			// class after reserveLocked (submissions themselves serialize
			// under s.mu): bail out whole rather than admit part of a plan.
			s.cfg.Logf("admission: %s queue filled after capacity check (queue-wait aging), aborting", class)
			return nil, s.rollbackJobsLocked(jobs), &admitError{
				status:     http.StatusServiceUnavailable,
				retryAfter: s.retryAfterHint(class),
				msg:        fmt.Sprintf("%s queue is full, retry later", class),
			}
		}
		jobs = append(jobs, job)
	}
	return jobs, nil, nil
}

// refuse answers an admission that admitLocked turned away: it cancels the
// rolled-back entries, refunds the quota charge and writes the error.  Call
// it after releasing the server mutex.
func (s *Server) refuse(w http.ResponseWriter, a *admission, aborts []*entry, err *admitError) {
	for _, e := range aborts {
		e.cancel()
	}
	s.quota.refund(a.charged)
	writeAdmitError(w, err)
}

// reserveLocked is the one capacity-and-promotion rule.  Each key of the
// plan needs a fresh execution (not cached, not revived), attaches to a
// live one, or is served done.  Attaching to a queued execution in a less
// urgent class than the key's entry class asks to promote it.  Classes are
// visited from most to least urgent; a class's free slots are Free(class)
// plus the slots freed by promotions already granted out of it.  Fresh
// executions reserve their slots first — if they do not fit, the whole plan
// is refused with 503 — and promotions into the class take what is left.  A
// promotion with no slot left is declined: its execution stays where it is
// and the member still attaches.  Granted promotions are applied here, most
// urgent target first, so every departure from a class happens before any
// arrival into it.  Queue-wait aging can still move items between this
// check and the submits; admitLocked's rollback covers that race.  Caller
// holds the server mutex.
func (s *Server) reserveLocked(a *admission) *admitError {
	var fresh [sched.NumClasses]int
	var asks [sched.NumClasses][]*entry // promotion requests by target class
	seen := make(map[string]bool, len(a.plans))
	for _, p := range a.plans {
		if seen[p.key] {
			continue
		}
		seen[p.key] = true
		to := a.entryClass[p.key]
		if e, hit := s.cache.lookup(p.key); hit {
			// StillQueued filters the race where a worker already popped
			// the item (Promote would no-op, freeing nothing).
			if e.state == StateQueued && to < e.class && s.sched.StillQueued(e.handle) {
				asks[to] = append(asks[to], e)
			}
			continue
		}
		if a.revived[p.key] == nil {
			fresh[to]++
		}
	}
	var freed, granted [sched.NumClasses]int
	for c := range sched.Class(sched.NumClasses) {
		if fresh[c] == 0 && len(asks[c]) == 0 {
			continue // nothing to reserve or promote here
		}
		free := s.sched.Free(c) + freed[c]
		if fresh[c] > free {
			return &admitError{
				status:     http.StatusServiceUnavailable,
				retryAfter: s.retryAfterHint(c),
				msg:        fmt.Sprintf("%s queue has %d free slots, %d needed; retry later", c, free, fresh[c]),
			}
		}
		granted[c] = min(len(asks[c]), free-fresh[c])
		for _, e := range asks[c][:granted[c]] {
			freed[e.class]++
		}
	}
	for c := range sched.Class(sched.NumClasses) {
		for _, e := range asks[c][:granted[c]] {
			s.moveEntryLocked(e, c)
		}
	}
	return nil
}

// rollbackJobsLocked undoes a partly admitted plan: every job created so far
// is cancelled and erased from the pollable history, so a refused plan
// leaves no trace.  It returns the entries whose contexts must be cancelled
// outside the lock.  Caller holds the server mutex.
func (s *Server) rollbackJobsLocked(jobs []*Job) []*entry {
	var aborts []*entry
	doomed := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if e := s.cancelJobLocked(j); e != nil {
			aborts = append(aborts, e)
		}
		doomed[j.id] = true
		delete(s.jobs, j.id)
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		if !doomed[id] {
			kept = append(kept, id)
		}
	}
	s.jobOrder = kept
	return aborts
}
