package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// admitOutcome is everything a client and /metrics can observe about one
// admission.
type admitOutcome struct {
	status     int
	retryAfter bool
	depth      [sched.NumClasses]float64
	state      State // the member job's state ("" when none was admitted)
	cacheHit   bool
}

// submitOnce sends req through POST /v1/sweeps, or as a one-member POST
// /v1/batches when batch is set, and records the outcome.
func submitOnce(h *harness, req refrint.SweepRequest, batch bool) admitOutcome {
	h.t.Helper()
	var job JobView
	var resp *http.Response
	if batch {
		var view BatchView
		resp = h.do("POST", "/v1/batches", BatchRequest{Requests: []refrint.SweepRequest{req}}, &view)
		if len(view.Jobs) == 1 {
			job = view.Jobs[0]
		}
	} else {
		resp = h.do("POST", "/v1/sweeps", req, &job)
	}
	o := admitOutcome{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After") != "",
		state:      job.State,
		cacheHit:   job.CacheHit,
	}
	for c := range sched.Class(sched.NumClasses) {
		o.depth[c] = h.schedMetric(`refrint_sched_queue_depth{class="` + c.String() + `"}`)
	}
	return o
}

// withPriority returns tinyRequest(seed) at the given priority label.
func withPriority(seed int64, priority string) refrint.SweepRequest {
	req := tinyRequest(seed)
	req.Priority = priority
	return req
}

// TestSubmitEqualsOneMemberBatch drives the same scenario on two fresh
// servers, submitting the final request once as POST /v1/sweeps and once as
// a one-member POST /v1/batches: a lone sweep is a batch of one, so status,
// Retry-After, per-class queue depth and the member job must all agree.
// Every scenario occupies the single worker first (seed 1, interactive) so
// queued work stays queued while the outcome is read.
func TestSubmitEqualsOneMemberBatch(t *testing.T) {
	storedReq := withPriority(2, "interactive")
	storedOpts, err := storedReq.Options()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := sweep.Execute(storedOpts)
	if err != nil {
		t.Fatal(err)
	}

	type scenario struct {
		name  string
		cfg   Config
		store bool // give each server a store holding storedReq's sweep
		// finish releases the blocker and waits for it to complete, so its
		// result is cached, before setup runs.
		finish bool
		// setup brings the server into the scenario's state once the
		// blocker runs; it fails the test on an unexpected status.
		setup func(h *harness)
		req   refrint.SweepRequest
		want  int
	}
	mustSubmit := func(h *harness, req refrint.SweepRequest) {
		h.t.Helper()
		if _, status := h.submit(req); status != http.StatusAccepted {
			h.t.Fatalf("setup submit (seed %d, %s): status %d, want 202", req.Seed, req.Priority, status)
		}
	}
	scenarios := []scenario{
		{
			name: "fresh",
			req:  withPriority(2, "interactive"),
			want: http.StatusAccepted,
		},
		{
			name:   "cache hit",
			finish: true,
			req:    withPriority(1, "batch"),
			want:   http.StatusOK,
		},
		{
			name:  "revived from a store",
			store: true,
			req:   storedReq,
			want:  http.StatusOK,
		},
		{
			name: "attach to running",
			req:  withPriority(1, "background"),
			want: http.StatusAccepted,
		},
		{
			name:  "attach plus promotion",
			setup: func(h *harness) { mustSubmit(h, withPriority(3, "background")) },
			req:   withPriority(3, "interactive"),
			want:  http.StatusAccepted,
		},
		{
			name: "attach plus promotion into a full class",
			cfg:  Config{ClassQueueDepth: [sched.NumClasses]int{1, 4, 4}},
			setup: func(h *harness) {
				mustSubmit(h, withPriority(2, "interactive"))
				mustSubmit(h, withPriority(3, "background"))
			},
			req:  withPriority(3, "interactive"),
			want: http.StatusAccepted,
		},
		{
			name:  "class full",
			cfg:   Config{ClassQueueDepth: [sched.NumClasses]int{1, 4, 4}},
			setup: func(h *harness) { mustSubmit(h, withPriority(2, "interactive")) },
			req:   withPriority(3, "interactive"),
			want:  http.StatusServiceUnavailable,
		},
		{
			name:  "draining",
			setup: func(h *harness) { h.srv.BeginDrain(3 * time.Second) },
			req:   withPriority(2, "interactive"),
			want:  http.StatusServiceUnavailable,
		},
		{
			name: "quota exhausted",
			cfg:  Config{ClientRate: 0.001, ClientBurst: 1},
			setup: func(h *harness) {
				first := withPriority(2, "interactive")
				first.Client = "tenant"
				mustSubmit(h, first)
			},
			req: func() refrint.SweepRequest {
				req := withPriority(3, "interactive")
				req.Client = "tenant"
				return req
			}(),
			want: http.StatusTooManyRequests,
		},
	}

	run := func(t *testing.T, sc scenario, batch bool) admitOutcome {
		cfg := sc.cfg
		cfg.Shards = 1
		exec := newBlockingExec()
		cfg.Execute = exec.fn
		if sc.store {
			st := openStore(t, t.TempDir())
			t.Cleanup(func() { st.Close() })
			if err := st.PutRanked(store.KindSweep, mustKey(t, storedReq), int(sched.Interactive), stored); err != nil {
				t.Fatal(err)
			}
			cfg.Store = st
		}
		h := newHarness(t, cfg)
		blocker, _ := h.submit(withPriority(1, "interactive"))
		<-exec.started
		if sc.finish {
			close(exec.release)
			h.waitState(blocker.ID, StateDone)
		}
		if sc.setup != nil {
			sc.setup(h)
		}
		return submitOnce(h, sc.req, batch)
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			lone := run(t, sc, false)
			batch := run(t, sc, true)
			if lone.status != sc.want {
				t.Errorf("POST /v1/sweeps: status %d, want %d", lone.status, sc.want)
			}
			if lone != batch {
				t.Errorf("POST /v1/sweeps and a one-member POST /v1/batches disagree:\n sweep %+v\n batch %+v", lone, batch)
			}
		})
	}
}

// TestBatchFreshWorkBeforePromotion pins the order of the admission rule:
// fresh executions reserve a class's slots before promotions into it, so a
// batch whose fresh member takes the last interactive slot is admitted, and
// its promotion into that class is declined rather than the batch refused.
func TestBatchFreshWorkBeforePromotion(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:          1,
		ClassQueueDepth: [sched.NumClasses]int{1, 4, 4},
		Execute:         exec.fn,
	})
	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	if _, status := h.submit(withPriority(3, "background")); status != http.StatusAccepted {
		t.Fatalf("background submit: status %d", status)
	}
	view, status := h.submitBatch(BatchRequest{Requests: []refrint.SweepRequest{
		withPriority(3, "interactive"), // attach: asks to promote seed 3
		withPriority(4, "interactive"), // fresh: needs the only slot
	}})
	if status != http.StatusAccepted || len(view.Jobs) != 2 {
		t.Fatalf("batch: status %d with %d jobs, want 202 with 2", status, len(view.Jobs))
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 1 {
		t.Fatalf("interactive depth = %v, want 1 (the fresh member)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); v != 1 {
		t.Fatalf("background depth = %v, want 1 (declined promotion stays put)", v)
	}
	close(exec.release)
}

// FuzzPlanSweep feeds arbitrary bytes through the batch endpoint's decoding
// and runs every member through planSweep.  It must never panic, and an
// accepted member must plan identically after a JSON round trip: same key,
// class and capped Workers.
func FuzzPlanSweep(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"requests":[{}]}`,
		`{"priority":"background","client":"c","requests":[{"priority":"interactive"},{"client":"d"}]}`,
		`{"requests":[{"apps":["FFT","LU"],"retention_times_us":[50,100],"policies":["R.valid","P.all"],"effort_scale":0.25,"seed":3,"workers":64}]}`,
		`{"requests":[{"preset":"fullsize","timeout_ms":5}]}`,
		`{"requests":[{"apps":[],"policies":[],"retention_times_us":[]}]}`,
		`{"requests":[{"apps":["NoSuchApp"]}]}`,
		`{"requests":[{"policies":["SRAM"]}]}`,
		`{"requests":[{"retention_times_us":[-1]}]}`,
		`{"requests":[{"workers":-5,"effort_scale":-1}]}`,
		`{"requests":[{"client":"bad label!"}]}`,
		`{"requests":[{"priority":"warp"}]}`,
		`{"requests":[{"typo":1}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Config{Shards: 1, SweepWorkers: 4, JobTimeout: time.Minute})
	f.Cleanup(s.Close)
	decode := func(data []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var breq BatchRequest
		if decode(data, &breq) != nil {
			return
		}
		def, err := classFor(breq.Priority, sched.Batch)
		if err != nil {
			def = sched.Batch // the handler stops here; plan the members anyway
		}
		for i, sub := range breq.Requests {
			if sub.Client == "" {
				sub.Client = breq.Client
			}
			p, err := s.planSweep(sub, def)
			if err != nil {
				continue
			}
			wire, err := json.Marshal(sub)
			if err != nil {
				t.Fatalf("requests[%d]: re-encode: %v", i, err)
			}
			var back refrint.SweepRequest
			if err := decode(wire, &back); err != nil {
				t.Fatalf("requests[%d]: decode of re-encoded %s: %v", i, wire, err)
			}
			q, err := s.planSweep(back, def)
			if err != nil {
				t.Fatalf("requests[%d]: accepted, but its round trip %s is rejected: %v", i, wire, err)
			}
			if q.key != p.key || q.class != p.class || q.opts.Workers != p.opts.Workers {
				t.Fatalf("requests[%d]: round trip planned key %s class %s workers %d, want %s %s %d",
					i, q.key, q.class, q.opts.Workers, p.key, p.class, p.opts.Workers)
			}
			if p.opts.Workers > s.cfg.SweepWorkers {
				t.Fatalf("requests[%d]: workers %d above the server cap %d", i, p.opts.Workers, s.cfg.SweepWorkers)
			}
		}
	})
}
