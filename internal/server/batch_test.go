package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// submitBatch POSTs a batch and returns the decoded view.
func (h *harness) submitBatch(req BatchRequest) (BatchView, int) {
	h.t.Helper()
	var view BatchView
	resp := h.do("POST", "/v1/batches", req, &view)
	return view, resp.StatusCode
}

// getBatch polls one batch.
func (h *harness) getBatch(id string) BatchView {
	h.t.Helper()
	var view BatchView
	resp := h.do("GET", "/v1/batches/"+id, nil, &view)
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET batch %s: status %d", id, resp.StatusCode)
	}
	return view
}

// waitBatchState polls until the batch reaches want (or any terminal state).
func (h *harness) waitBatchState(id string, want State) BatchView {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view := h.getBatch(id)
		if view.State == want {
			return view
		}
		if view.State.Terminal() || time.Now().After(deadline) {
			h.t.Fatalf("batch %s: state %q (counts %v), want %q", id, view.State, view.Counts, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBatchLifecycle drives a real batch end to end: one handle, aggregated
// progress, member jobs individually pollable, results fetchable, and
// identical requests within the batch singleflighted onto one execution.
func TestBatchLifecycle(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Execute: exec.fn})
	close(exec.release) // run everything immediately

	view, status := h.submitBatch(BatchRequest{
		Client:   "campaign",
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(2), tinyRequest(1)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d, want 202", status)
	}
	if view.ID == "" || len(view.Jobs) != 3 {
		t.Fatalf("batch view = %+v, want 3 jobs and an id", view)
	}
	if view.Priority != "batch" {
		t.Fatalf("batch default priority = %q, want batch", view.Priority)
	}
	if view.Jobs[0].Key != view.Jobs[2].Key {
		t.Fatalf("identical requests got distinct keys %q vs %q", view.Jobs[0].Key, view.Jobs[2].Key)
	}

	done := h.waitBatchState(view.ID, StateDone)
	if done.Counts[string(StateDone)] != 3 {
		t.Fatalf("terminal counts = %v, want done:3", done.Counts)
	}
	if done.Progress.Percent != 100 || done.Progress.Done != done.Progress.Total {
		t.Fatalf("terminal progress = %+v, want 100%%", done.Progress)
	}
	// The duplicate request shared an execution: two sweeps ran, not three.
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("batch of 3 (one duplicate) ran %d executions, want 2", n)
	}
	// Member jobs stay individually addressable.
	for _, j := range done.Jobs {
		if got := h.getJob(j.ID); got.State != StateDone {
			t.Errorf("member job %s state = %q, want done", j.ID, got.State)
		}
	}
	if resp := h.do("GET", "/v1/sweeps/"+done.Jobs[0].ID+"/figures", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("member figures: status %d", resp.StatusCode)
	}
}

// TestBatchValidationAtomic verifies a batch with any invalid request is
// rejected whole: no jobs are created for the valid ones.
func TestBatchValidationAtomic(t *testing.T) {
	h := newHarness(t, Config{})

	cases := []BatchRequest{
		{},                                   // no requests
		{Requests: []refrint.SweepRequest{}}, // empty
		{Requests: []refrint.SweepRequest{tinyRequest(1), {Apps: []string{"NoSuchApp"}}}},
		{Requests: []refrint.SweepRequest{tinyRequest(1)}, Priority: "turbo"},
		{Requests: []refrint.SweepRequest{func() refrint.SweepRequest {
			r := tinyRequest(1)
			r.Priority = "warp"
			return r
		}()}},
	}
	for i, c := range cases {
		if resp := h.do("POST", "/v1/batches", c, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	h.do("GET", "/v1/sweeps", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected batches left %d jobs behind", len(list.Jobs))
	}
}

// TestBatchCapacityAtomic verifies all-or-nothing admission against queue
// capacity: a batch needing more slots than remain is rejected whole, and
// the slots it probed stay usable.
func TestBatchCapacityAtomic(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Shards: 1, QueueDepth: 2, Execute: exec.fn})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker
	// Leave one free batch-class slot.
	one := tinyRequest(2)
	one.Priority = "batch"
	if _, status := h.submit(one); status != http.StatusAccepted {
		t.Fatalf("filler submit: status %d", status)
	}

	over := BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(3), tinyRequest(4)}}
	if _, status := h.submitBatch(over); status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity batch: status %d, want 503", status)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	h.do("GET", "/v1/sweeps", nil, &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("rejected batch created jobs: %d total, want 2", len(list.Jobs))
	}

	// The single free slot is still usable — by a batch that fits.
	fits := BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(3)}}
	if view, status := h.submitBatch(fits); status != http.StatusAccepted || len(view.Jobs) != 1 {
		t.Fatalf("fitting batch: status %d view %+v", status, view)
	}
	close(exec.release)
}

// TestBatchPartialFailure verifies aggregation when one member fails: the
// batch ends failed, with per-state counts showing the mixed outcome.
func TestBatchPartialFailure(t *testing.T) {
	h := newHarness(t, Config{
		Execute: func(ctx context.Context, opts sweep.Options, progress func(sweep.Progress)) (*refrint.SweepResults, error) {
			if opts.Seed == 99 {
				return nil, fmt.Errorf("synthetic failure for seed 99")
			}
			return sweep.ExecuteContext(ctx, opts, progress)
		},
	})

	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(99)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d", status)
	}
	failed := h.waitBatchState(view.ID, StateFailed)
	if failed.Counts[string(StateDone)] != 1 || failed.Counts[string(StateFailed)] != 1 {
		t.Fatalf("counts = %v, want done:1 failed:1", failed.Counts)
	}
	// The surviving member's results are still fetchable.
	for _, j := range failed.Jobs {
		if j.State == StateDone {
			if resp := h.do("GET", "/v1/sweeps/"+j.ID+"/results", nil, nil); resp.StatusCode != http.StatusOK {
				t.Errorf("surviving member results: status %d", resp.StatusCode)
			}
		}
	}
}

// TestBatchCancel verifies DELETE /v1/batches/{id}: every non-terminal
// member is cancelled, queued members free their scheduler slots
// immediately, and running members abort via context.
func TestBatchCancel(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Shards: 1, QueueDepth: 2, Execute: exec.fn})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker so batch members stay queued

	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(2), tinyRequest(3)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d", status)
	}
	var cancelled BatchView
	resp := h.do("DELETE", "/v1/batches/"+view.ID, nil, &cancelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE batch: status %d", resp.StatusCode)
	}
	if cancelled.State != StateCancelled || cancelled.Counts[string(StateCancelled)] != 2 {
		t.Fatalf("cancelled batch = state %q counts %v, want cancelled:2", cancelled.State, cancelled.Counts)
	}

	// Both queued members left the scheduler at cancel time: the batch
	// class has its full capacity back with no worker pop in between.
	var hz struct {
		Queued int `json:"queued"`
	}
	h.do("GET", "/healthz", nil, &hz)
	if hz.Queued != 0 {
		t.Fatalf("healthz queued = %d after batch cancel, want 0", hz.Queued)
	}
	refill := BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(4), tinyRequest(5)}}
	if _, status := h.submitBatch(refill); status != http.StatusAccepted {
		t.Fatalf("batch after cancel: status %d, want 202 (slots leaked)", status)
	}
	// Cancelling a second time is a no-op that reports the same state.
	h.do("DELETE", "/v1/batches/"+view.ID, nil, &cancelled)
	if cancelled.State != StateCancelled {
		t.Fatalf("re-cancel state = %q", cancelled.State)
	}

	close(exec.release)
	// Only the blocker and the refill batch ever execute.
	h.waitBatchState(h.getBatch(view.ID).ID, StateCancelled)
	if n := exec.calls.Load(); n > 3 {
		t.Fatalf("executor ran %d sweeps, want <= 3 (cancelled members must not run)", n)
	}

	if resp := h.do("GET", "/v1/batches/batch-999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown batch: status %d, want 404", resp.StatusCode)
	}
	if resp := h.do("DELETE", "/v1/batches/batch-999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown batch: status %d, want 404", resp.StatusCode)
	}
}

// TestBatchIgnoresFullUntouchedClass is a regression for the capacity check
// vetoing batches over classes they do not use: a full class must not 503 a
// batch that needs zero slots there.  (The attach below also exercises the
// promote-into-full-class path: the promotion is declined and the shared
// execution stays at its original class rather than overflowing the bound.)
func TestBatchIgnoresFullUntouchedClass(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:          1,
		ClassQueueDepth: [sched.NumClasses]int{1, 4, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	// Fill interactive to its depth of 1, then attach an interactive job
	// to a queued background sweep: the promotion must be declined (the
	// class is full) and the interactive bound must hold.
	fill := tinyRequest(2)
	fill.Priority = "interactive"
	if _, status := h.submit(fill); status != http.StatusAccepted {
		t.Fatalf("interactive fill: status %d", status)
	}
	bg := tinyRequest(3)
	bg.Priority = "background"
	if _, status := h.submit(bg); status != http.StatusAccepted {
		t.Fatalf("background submit: status %d", status)
	}
	attach := tinyRequest(3)
	attach.Priority = "interactive"
	if _, status := h.submit(attach); status != http.StatusAccepted {
		t.Fatalf("attach to queued background sweep: status %d", status)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 1 {
		t.Fatalf("interactive depth = %v, want 1 (declined promotion must not overflow the bound)", v)
	}
	// Interactive is full.  A batch needing only batch-class capacity must
	// still be admitted.
	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(4), tinyRequest(5)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("batch over an untouched over-full class: status %d, want 202", status)
	}
	if len(view.Jobs) != 2 {
		t.Fatalf("batch admitted %d jobs, want 2", len(view.Jobs))
	}
	close(exec.release)
}

// TestBatchMixedPriorityDuplicates is a regression for capacity accounting
// of duplicate keys with mixed priorities: the shared execution lands in the
// most urgent class of its occurrences, that class is what admission charges
// (an undercount here used to trip the mid-batch rollback as a spurious
// 503), and a batch genuinely over that capacity is rejected whole up front.
func TestBatchMixedPriorityDuplicates(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:          1,
		ClassQueueDepth: [sched.NumClasses]int{2, 4, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	bg := tinyRequest(5)
	bg.Priority = "background"
	urgent := tinyRequest(5) // same sweep, more urgent
	urgent.Priority = "interactive"
	other := tinyRequest(6)
	other.Priority = "interactive"
	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{bg, urgent, other},
	})
	if status != http.StatusAccepted {
		t.Fatalf("mixed-priority batch: status %d, want 202 (interactive has exactly 2 free slots)", status)
	}
	if len(view.Jobs) != 3 {
		t.Fatalf("admitted %d jobs, want 3", len(view.Jobs))
	}
	// The duplicate pair shares one execution, queued at interactive (its
	// most urgent occurrence), not background.
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 2 {
		t.Fatalf("interactive queue depth = %v, want 2 (shared execution + seed 6)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); v != 0 {
		t.Fatalf("background queue depth = %v, want 0", v)
	}

	// Interactive is now full: another such batch is rejected whole by the
	// up-front check, leaving no member behind.
	before := len(h.getBatch(view.ID).Jobs) + 1 // batch members + blocker
	bg2 := tinyRequest(7)
	bg2.Priority = "background"
	urgent2 := tinyRequest(7)
	urgent2.Priority = "interactive"
	if _, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{bg2, urgent2},
	}); status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity mixed batch: status %d, want 503", status)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	h.do("GET", "/v1/sweeps", nil, &list)
	if len(list.Jobs) != before {
		t.Fatalf("rejected batch changed job count: %d, want %d", len(list.Jobs), before)
	}
	close(exec.release)
}

// TestBatchPromotesStraightToEffectiveClass is a regression for attach
// promotion passing through an unaccounted intermediate class: a batch
// member attaching to a pre-existing queued execution must promote it
// directly to the batch's effective class for that key, never parking it in
// a class the capacity check did not charge.
func TestBatchPromotesStraightToEffectiveClass(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:          1,
		ClassQueueDepth: [sched.NumClasses]int{4, 1, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	// Pre-existing background execution for seed 5.
	pre := tinyRequest(5)
	pre.Priority = "background"
	if _, status := h.submit(pre); status != http.StatusAccepted {
		t.Fatalf("pre-existing submit: status %d", status)
	}

	// Batch: seed 5 at batch AND at interactive (eff class interactive),
	// plus a fresh batch-class member needing the single batch slot.  A
	// promotion stopping over in the batch class would eat that slot and
	// 503 the whole (capacity-checked) batch.
	dupBatch := tinyRequest(5)
	dupBatch.Priority = "batch"
	dupInter := tinyRequest(5)
	dupInter.Priority = "interactive"
	fresh := tinyRequest(6)
	fresh.Priority = "batch"
	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{dupBatch, fresh, dupInter},
	})
	if status != http.StatusAccepted {
		t.Fatalf("batch: status %d, want 202 (promotion must skip intermediate classes)", status)
	}
	if len(view.Jobs) != 3 {
		t.Fatalf("admitted %d jobs, want 3", len(view.Jobs))
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 1 {
		t.Fatalf("interactive depth = %v, want 1 (the promoted execution)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="batch"}`); v != 1 {
		t.Fatalf("batch depth = %v, want 1 (the fresh member)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); v != 0 {
		t.Fatalf("background depth = %v, want 0 (execution left it)", v)
	}
	close(exec.release)
}

// TestBatchCreditsPromotionFreedSlots is a regression for the admission
// check ignoring slots the batch's own promotions free: with the batch
// class full only because of an execution this batch promotes out of it,
// the batch must be admitted — even when the fresh member that needs the
// freed slot is listed before the promoting duplicate.
func TestBatchCreditsPromotionFreedSlots(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:          1,
		ClassQueueDepth: [sched.NumClasses]int{4, 1, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	// Fill the batch class with execution K.
	pre := tinyRequest(5)
	pre.Priority = "batch"
	if _, status := h.submit(pre); status != http.StatusAccepted {
		t.Fatalf("pre-existing batch submit: status %d", status)
	}

	// Fresh batch-class member first, promoting duplicate second: the
	// promotion of K to interactive frees the only batch slot.
	fresh := tinyRequest(6)
	fresh.Priority = "batch"
	dup := tinyRequest(5)
	dup.Priority = "interactive"
	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{fresh, dup},
	})
	if status != http.StatusAccepted {
		t.Fatalf("batch freeing its own slot: status %d, want 202", status)
	}
	if len(view.Jobs) != 2 {
		t.Fatalf("admitted %d jobs, want 2", len(view.Jobs))
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 1 {
		t.Fatalf("interactive depth = %v, want 1 (promoted K)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="batch"}`); v != 1 {
		t.Fatalf("batch depth = %v, want 1 (fresh member in the freed slot)", v)
	}
	close(exec.release)
}

// TestBatchLargerThanResultCache is a regression for big batches of
// persisted sweeps: reviving more keys than the in-memory cache holds used
// to evict the batch's own earlier revivals before admission, re-executing
// (or 503ing) work that was already on disk.
func TestBatchLargerThanResultCache(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	seeds := []int64{1, 2, 3, 4, 5}

	st1 := openStore(t, dir)
	h1 := newHarness(t, Config{Store: st1, Execute: countingExec(&calls)})
	for _, seed := range seeds {
		view, _ := h1.submit(tinyRequest(seed))
		h1.waitState(view.ID, StateDone)
	}
	if n := calls.Load(); n != int64(len(seeds)) {
		t.Fatalf("setup ran %d sweeps, want %d", n, len(seeds))
	}
	h1.ts.Close()
	h1.srv.Close()
	st1.Close()

	// Restart with a result cache smaller than the batch.
	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	h2 := newHarness(t, Config{Store: st2, CacheEntries: 2, Execute: countingExec(&calls)})
	var reqs []refrint.SweepRequest
	for _, seed := range seeds {
		reqs = append(reqs, tinyRequest(seed))
	}
	view, status := h2.submitBatch(BatchRequest{Requests: reqs})
	if status != http.StatusOK {
		t.Fatalf("persisted batch: status %d, want 200 (all members on disk)", status)
	}
	if view.State != StateDone || view.Counts[string(StateDone)] != len(seeds) {
		t.Fatalf("persisted batch = state %q counts %v, want all done", view.State, view.Counts)
	}
	if n := calls.Load(); n != int64(len(seeds)) {
		t.Fatalf("persisted batch re-ran sweeps: %d executions total, want %d", n, len(seeds))
	}
}

// TestBatchFreezesTerminalMembers verifies batches do not pin results: once
// a member is terminal and observed, the batch drops its Job pointer (and
// with it the entry -> results chain), while aggregation keeps answering
// even after the jobs age out of the pollable history.
func TestBatchFreezesTerminalMembers(t *testing.T) {
	h := newHarness(t, Config{JobHistory: 1})

	view, _ := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(2)},
	})
	done := h.waitBatchState(view.ID, StateDone)

	h.srv.mu.Lock()
	b := h.srv.batches[view.ID]
	for i := range b.members {
		if b.members[i].job != nil {
			t.Errorf("member %d still holds its Job pointer after terminal snapshot", i)
		}
	}
	h.srv.mu.Unlock()

	// Age the member jobs out of the history; the batch still aggregates.
	last, _ := h.submit(tinyRequest(3))
	h.waitState(last.ID, StateDone)
	if resp := h.do("GET", "/v1/sweeps/"+done.Jobs[0].ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("member job survived JobHistory=1 eviction: status %d", resp.StatusCode)
	}
	after := h.getBatch(view.ID)
	if after.State != StateDone || after.Counts[string(StateDone)] != 2 {
		t.Fatalf("batch after member eviction = state %q counts %v, want done:2", after.State, after.Counts)
	}

	// A fire-and-forget batch nobody polls also freezes: the next batch
	// submission sweeps terminal members of every pollable batch.
	unpolled, _ := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(4)},
	})
	h.waitState(unpolled.Jobs[0].ID, StateDone) // poll the job, not the batch
	h.submitBatch(BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(5)}})
	h.srv.mu.Lock()
	ub := h.srv.batches[unpolled.ID]
	frozen := ub.members[0].job == nil
	h.srv.mu.Unlock()
	if !frozen {
		t.Fatal("terminal member of an unpolled batch still holds its Job pointer after the next batch submission")
	}
}

// TestRollbackBatchLocked covers the defensive bail-out directly (it is
// unreachable through the HTTP path while submissions serialize under the
// server mutex): created members are cancelled and erased from the pollable
// history, queued executions leave the scheduler, and running ones are
// handed back for context cancellation.
func TestRollbackBatchLocked(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Shards: 1, Execute: exec.fn})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker so batch members stay queued

	s := h.srv
	s.mu.Lock()
	var jobs []*Job
	for seed := int64(2); seed <= 3; seed++ {
		req := tinyRequest(seed)
		opts, err := req.Options()
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
		job, ok := s.submitJobLocked(req, opts, opts.Key(), sched.Batch, sched.Batch, 0, trace{id: newTraceID()})
		if !ok {
			s.mu.Unlock()
			t.Fatal("submitJobLocked rejected")
		}
		jobs = append(jobs, job)
	}
	jobsBefore := len(s.jobs)
	aborts := s.rollbackJobsLocked(jobs)
	jobsAfter, orderAfter := len(s.jobs), len(s.jobOrder)
	queued := s.sched.Queued()
	s.mu.Unlock()
	for _, e := range aborts {
		e.cancel()
	}

	if jobsBefore != 3 || jobsAfter != 1 || orderAfter != 1 {
		t.Fatalf("rollback left jobs=%d order=%d (had %d), want only the blocker", jobsAfter, orderAfter, jobsBefore)
	}
	if queued != 0 {
		t.Fatalf("rollback left %d queued executions, want 0", queued)
	}
	if len(aborts) != 0 {
		t.Fatalf("rollback of queued-only members returned %d running entries, want 0", len(aborts))
	}
	close(exec.release)
	// Only the blocker ever executes.
	if n := exec.calls.Load(); n != 1 {
		t.Fatalf("executor ran %d sweeps, want 1", n)
	}
}

// TestBatchAllCacheHits verifies a batch whose members are all already
// cached answers 200 and is born done.
func TestBatchAllCacheHits(t *testing.T) {
	h := newHarness(t, Config{})
	first, _ := h.submit(tinyRequest(1))
	h.waitState(first.ID, StateDone)

	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(1)},
	})
	if status != http.StatusOK {
		t.Fatalf("all-cached batch: status %d, want 200", status)
	}
	if view.State != StateDone || view.Counts[string(StateDone)] != 2 {
		t.Fatalf("all-cached batch = state %q counts %v", view.State, view.Counts)
	}
	for _, j := range view.Jobs {
		if !j.CacheHit {
			t.Errorf("member %s not marked cache_hit", j.ID)
		}
	}
}
