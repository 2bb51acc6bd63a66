package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// labeledMetric extracts one labelled sample (e.g. `name{class="batch"}`)
// from exposition text, returning 0 when the series is absent.
func labeledMetric(t *testing.T, text, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", sample, m[1], err)
	}
	return v
}

// metricsText fetches /metrics.
func (h *harness) metricsText() string {
	h.t.Helper()
	text, status := h.getText("/metrics")
	if status != http.StatusOK {
		h.t.Fatalf("GET /metrics: status %d", status)
	}
	return text
}

// retryAfterHeader asserts the response carries a positive integer
// Retry-After and returns it.
func retryAfterHeader(t *testing.T, resp *http.Response) int {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", v)
	}
	return n
}

// TestValidateClient unit-tests the wire-label validator.
func TestValidateClient(t *testing.T) {
	good := []string{"", "alice", "team-7", "a.b_c:d@e/f+g", strings.Repeat("x", maxClientLabel)}
	for _, s := range good {
		if err := validateClient(s); err != nil {
			t.Errorf("validateClient(%q) = %v, want nil", s, err)
		}
	}
	bad := []string{
		strings.Repeat("x", maxClientLabel+1),
		"sp ace", "new\nline", "quo\"te", "unié", "semi;colon", "{brace}",
	}
	for _, s := range bad {
		if err := validateClient(s); err == nil {
			t.Errorf("validateClient(%q) = nil, want error", s)
		}
	}
}

// TestClientLabelRejected is the wire regression: garbage client labels get
// 400 from both submission endpoints, before any state is touched.
func TestClientLabelRejected(t *testing.T) {
	h := newHarness(t, Config{Execute: newBlockingExec().fn})

	for _, client := range []string{strings.Repeat("x", 65), "bad label"} {
		req := tinyRequest(1)
		req.Client = client
		if _, status := h.submit(req); status != http.StatusBadRequest {
			t.Errorf("sweep with client %q: status %d, want 400", client, status)
		}
		var body errorBody
		resp := h.do("POST", "/v1/batches", BatchRequest{
			Client:   client,
			Requests: []refrint.SweepRequest{tinyRequest(1)},
		}, &body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch with client %q: status %d, want 400", client, resp.StatusCode)
		}
		// A member-level override is validated too.
		member := tinyRequest(1)
		member.Client = client
		resp = h.do("POST", "/v1/batches", BatchRequest{
			Requests: []refrint.SweepRequest{member},
		}, &body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch member with client %q: status %d, want 400", client, resp.StatusCode)
		}
	}
	var hz struct {
		Jobs int `json:"jobs"`
	}
	h.do("GET", "/healthz", nil, &hz)
	if hz.Jobs != 0 {
		t.Fatalf("rejected submissions created %d jobs", hz.Jobs)
	}
}

// TestQuotaThrottlesFloodingClient is the multi-tenant acceptance test: with
// per-client quotas on, a flooding client is capped with 429s (carrying
// Retry-After) while another client's interactive sweeps run to completion
// untouched, and /metrics attributes every throttle to the flooder.
func TestQuotaThrottlesFloodingClient(t *testing.T) {
	h := newHarness(t, Config{ClientRate: 0.001, ClientBurst: 2})

	// The flooder burns its burst of 2 and then bounces off the limiter.
	throttled := 0
	for seed := int64(100); seed < 106; seed++ {
		req := tinyRequest(seed)
		req.Client = "noisy"
		req.Priority = "background"
		var view JobView
		resp := h.do("POST", "/v1/sweeps", req, &view)
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
		case http.StatusTooManyRequests:
			throttled++
			retryAfterHeader(t, resp)
		default:
			t.Fatalf("noisy seed %d: status %d", seed, resp.StatusCode)
		}
	}
	if throttled != 4 {
		t.Fatalf("flooder got %d 429s, want 4 (burst 2 of 6 submissions)", throttled)
	}

	// The well-behaved client is unaffected: its interactive sweeps are
	// admitted and complete.
	for seed := int64(200); seed < 202; seed++ {
		req := tinyRequest(seed)
		req.Client = "good"
		view, status := h.submit(req)
		if status != http.StatusAccepted {
			t.Fatalf("good seed %d: status %d, want 202", seed, status)
		}
		h.waitState(view.ID, StateDone)
	}

	text := h.metricsText()
	if n := labeledMetric(t, text, `refrint_client_throttled_total{client="noisy"}`); n != 4 {
		t.Errorf(`refrint_client_throttled_total{client="noisy"} = %g, want 4`, n)
	}
	if n := labeledMetric(t, text, `refrint_client_throttled_total{client="good"}`); n != 0 {
		t.Errorf(`refrint_client_throttled_total{client="good"} = %g, want 0`, n)
	}
}

// TestQuotaRefillRecovery drives a client over quota and then waits the
// bucket out: after roughly Retry-After seconds of refill the client is
// admitted again.
func TestQuotaRefillRecovery(t *testing.T) {
	h := newHarness(t, Config{ClientRate: 2, ClientBurst: 1})

	req := tinyRequest(300)
	req.Client = "bursty"
	if _, status := h.submit(req); status != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", status)
	}
	var denied *http.Response
	for seed := int64(301); seed < 320; seed++ {
		r := tinyRequest(seed)
		r.Client = "bursty"
		if resp := h.do("POST", "/v1/sweeps", r, nil); resp.StatusCode == http.StatusTooManyRequests {
			denied = resp
			break
		}
	}
	if denied == nil {
		t.Fatal("never saw a 429 with burst 1")
	}
	retryAfterHeader(t, denied)

	// At 2 tokens/second the bucket refills within ~500ms; poll until the
	// client is admitted again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := tinyRequest(999)
		r.Client = "bursty"
		resp := h.do("POST", "/v1/sweeps", r, nil)
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after refill: last status %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuotaFakeClock unit-tests the token bucket deterministically: burst,
// denial wait hints, refill, and all-or-nothing batch charging.
func TestQuotaFakeClock(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newClientQuota(2, 4, func() time.Time { return now })

	for i := 0; i < 4; i++ {
		if ok, _, _ := q.allow(map[string]int{"a": 1}); !ok {
			t.Fatalf("charge %d within burst denied", i)
		}
	}
	ok, _, wait := q.allow(map[string]int{"a": 1})
	if ok {
		t.Fatal("charge beyond burst allowed")
	}
	// Empty bucket, rate 2/s: one token exists in 500ms.
	if wait != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms", wait)
	}
	// A charge beyond burst hints the burst refill, not the impossible full
	// charge.
	if _, _, wait := q.allow(map[string]int{"a": 10}); wait != 2*time.Second {
		t.Fatalf("over-burst wait = %v, want 2s (burst/rate)", wait)
	}
	now = now.Add(time.Second) // +2 tokens
	if ok, _, _ := q.allow(map[string]int{"a": 2}); !ok {
		t.Fatal("refilled tokens not granted")
	}

	// allow is atomic: a denied batch burns nobody's tokens.
	ok, denied, _ := q.allow(map[string]int{"b": 3, "a": 1})
	if ok || denied != "a" {
		t.Fatalf("allow = ok=%v denied=%q, want denial of a", ok, denied)
	}
	if ok, _, _ := q.allow(map[string]int{"b": 4}); !ok {
		t.Fatal("denied batch consumed b's tokens")
	}

	byClient, total := q.stats()
	if total != 3 || byClient["a"] != 3 {
		t.Fatalf("throttle stats = %v total %d, want a:3 total 3", byClient, total)
	}

	if nq := newClientQuota(0, 0, nil); nq != nil {
		t.Fatal("rate 0 should disable the quota (nil)")
	}
	var off *clientQuota
	if ok, _, _ := off.allow(map[string]int{"x": 100}); !ok {
		t.Fatal("nil quota must always allow")
	}
}

// TestBatchQuotaChargesPerRequest verifies a batch charges one token per
// member request: a batch larger than the remaining tokens is rejected whole
// with 429 and Retry-After, without burning the client's tokens.
func TestBatchQuotaChargesPerRequest(t *testing.T) {
	h := newHarness(t, Config{ClientRate: 0.001, ClientBurst: 3, Execute: newBlockingExec().fn})

	big := BatchRequest{Client: "camp", Requests: []refrint.SweepRequest{
		tinyRequest(1), tinyRequest(2), tinyRequest(3), tinyRequest(4),
	}}
	resp := h.do("POST", "/v1/batches", big, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("4-request batch against burst 3: status %d, want 429", resp.StatusCode)
	}
	retryAfterHeader(t, resp)

	// The rejection was all-or-nothing: the full burst is still available.
	var view BatchView
	ok := BatchRequest{Client: "camp", Requests: []refrint.SweepRequest{
		tinyRequest(1), tinyRequest(2), tinyRequest(3),
	}}
	resp = h.do("POST", "/v1/batches", ok, &view)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("3-request batch after rejected 4: status %d, want 202", resp.StatusCode)
	}
}

// TestQueueFullRetryAfter verifies the 503 paths carry a Retry-After hint on
// both submission endpoints.
func TestQueueFullRetryAfter(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Shards: 1, QueueDepth: 1, Execute: exec.fn})
	defer close(exec.release)

	running, _ := h.submit(tinyRequest(1))
	<-exec.started
	for seed := int64(2); ; seed++ {
		resp := h.do("POST", "/v1/sweeps", tinyRequest(seed), nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			retryAfterHeader(t, resp)
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		if seed > 16 {
			t.Fatal("queue never filled")
		}
	}
	resp := h.do("POST", "/v1/batches", BatchRequest{
		Priority: "interactive",
		Requests: []refrint.SweepRequest{tinyRequest(90), tinyRequest(91)},
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch into full queue: status %d, want 503", resp.StatusCode)
	}
	retryAfterHeader(t, resp)
	_ = running
}

// TestAgingLiftsBackgroundUnderLoad is the aging acceptance test: with the
// only worker pinned by an interactive sweep and more interactive work
// queued, a background sweep ages hop by hop into the interactive class —
// visible in refrint_sched_aged_total — and completes once the worker frees,
// instead of starving behind the interactive flood.
func TestAgingLiftsBackgroundUnderLoad(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:   1,
		AgeAfter: 25 * time.Millisecond,
		Execute:  exec.fn,
	})

	pin, _ := h.submit(tinyRequest(1))
	<-exec.started // the worker is now occupied

	// Sustained interactive load: more interactive sweeps queued ahead.
	for seed := int64(2); seed <= 4; seed++ {
		if _, status := h.submit(tinyRequest(seed)); status != http.StatusAccepted {
			t.Fatalf("interactive seed %d: status %d", seed, status)
		}
	}
	bgReq := tinyRequest(50)
	bgReq.Priority = "background"
	bgReq.Client = "nightly"
	bg, status := h.submit(bgReq)
	if status != http.StatusAccepted {
		t.Fatalf("background submit: status %d", status)
	}

	// Two full age periods lift it background -> batch -> interactive.
	deadline := time.Now().Add(10 * time.Second)
	for {
		text := h.metricsText()
		hop1 := labeledMetric(t, text, `refrint_sched_aged_total{from="background",to="batch"}`)
		hop2 := labeledMetric(t, text, `refrint_sched_aged_total{from="batch",to="interactive"}`)
		if hop1 >= 1 && hop2 >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aging counters never moved: hop1=%g hop2=%g", hop1, hop2)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The aged execution's jobs follow it: job views must report the
	// effective (aged) class, not the submitted one.  Poll briefly — the
	// OnAge callback lands just after the scheduler counter moves.
	deadline = time.Now().Add(10 * time.Second)
	for h.getJob(bg.ID).Priority != "interactive" {
		if time.Now().After(deadline) {
			t.Fatalf("aged job still reports priority %q, want interactive", h.getJob(bg.ID).Priority)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(exec.release)
	h.waitState(bg.ID, StateDone)
	h.waitState(pin.ID, StateDone)
}

// TestFirehoseFilters verifies GET /v1/events?client=&class=: a filtered
// dashboard sees only its tenant's (or class's) events while the rest of the
// firehose traffic is suppressed.
func TestFirehoseFilters(t *testing.T) {
	h := newHarness(t, sseConfig(nil))

	byClient := h.openSSE("/v1/events?client=alice", "")
	byClass := h.openSSE("/v1/events?class=background", "")

	// Decoys first: if the filters leak, these events arrive first and the
	// ID assertions below fail.
	decoy := tinyRequest(10)
	decoy.Client = "bob"
	decoyView, _ := h.submit(decoy)
	h.waitState(decoyView.ID, StateDone)

	aliceReq := tinyRequest(11)
	aliceReq.Client = "alice"
	aliceView, _ := h.submit(aliceReq)

	bgReq := tinyRequest(12)
	bgReq.Priority = "background"
	bgReq.Client = "bob"
	bgView, _ := h.submit(bgReq)

	assertOnly := func(st *sseStream, wantID string) {
		t.Helper()
		ev, _ := st.until("state", "progress", "done")
		var payload struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(ev.data), &payload); err != nil {
			t.Fatalf("event data %q: %v", ev.data, err)
		}
		if payload.ID != wantID {
			t.Fatalf("filtered stream delivered job %q, want %q", payload.ID, wantID)
		}
	}
	assertOnly(byClient, aliceView.ID)
	assertOnly(byClass, bgView.ID)

	if _, status := h.getText("/v1/events?class=bogus"); status != http.StatusBadRequest {
		t.Errorf("?class=bogus: status %d, want 400", status)
	}
	if _, status := h.getText("/v1/events?client=" + strings.Repeat("x", 80)); status != http.StatusBadRequest {
		t.Errorf("overlong ?client=: status %d, want 400", status)
	}
}

// TestEventLogReplay verifies the Last-Event-ID replay log: a subscriber
// that disconnects mid-run and reconnects with its last seen ID receives the
// progress deltas it missed — before the fresh snapshot — rather than only a
// snapshot.
func TestEventLogReplay(t *testing.T) {
	exec := newSteppedExec()
	h := newHarness(t, sseConfig(exec.fn))

	// A firehose dashboard stays attached throughout, which keeps the
	// job's events publishing (and logging) while the job stream is away.
	fh := h.openSSE("/v1/events", "")

	view, _ := h.submit(tinyRequest(1))
	<-exec.started

	st1 := h.openSSE("/v1/sweeps/"+view.ID+"/events", "")
	st1.until("state")
	exec.step <- progressOf(1, 5)
	seen, _ := st1.until("progress")
	st1.close()

	// Progress the subscriber misses while away; the firehose confirms each
	// step published (and was therefore logged) before the next fires.
	exec.step <- progressOf(2, 5)
	waitProgress(t, fh, 2)
	exec.step <- progressOf(3, 5)
	waitProgress(t, fh, 3)

	st2 := h.openSSE("/v1/sweeps/"+view.ID+"/events", seen.id)
	first, ok := st2.next()
	if !ok || first.name != "progress" {
		t.Fatalf("first event after reconnect = %+v (ok=%v), want a replayed progress delta", first, ok)
	}
	if _, p := first.progressPayload(t); p.Done < 2 {
		t.Fatalf("replayed delta done = %d, want >= 2", p.Done)
	}
	// The fresh snapshot still follows the replay.
	st2.until("state")

	close(exec.release)
	if term, _ := st2.until("done", "failed", "cancelled"); term.name != "done" {
		t.Fatalf("terminal = %q, want done", term.name)
	}
}

// TestPriorityAwareCacheEviction verifies the result cache evicts background
// results before interactive ones at equal recency: with room for two
// completions, an older interactive result outlives two newer background
// completions, and the eviction lands on the by-class counter.
func TestPriorityAwareCacheEviction(t *testing.T) {
	var calls atomic.Int64
	h := newHarness(t, Config{CacheEntries: 2, Execute: countingExec(&calls)})

	iReq := tinyRequest(500) // interactive is the default class
	iView, _ := h.submit(iReq)
	h.waitState(iView.ID, StateDone)

	for seed := int64(501); seed <= 502; seed++ {
		req := tinyRequest(seed)
		req.Priority = "background"
		view, _ := h.submit(req)
		h.waitState(view.ID, StateDone)
	}

	// Three completions against capacity 2: the LRU victim would be the
	// interactive result, but priority-aware eviction takes the oldest
	// background completion instead.
	ranBefore := calls.Load()
	again, status := h.submit(iReq)
	if status != http.StatusOK || !again.CacheHit {
		t.Fatalf("interactive resubmit: status %d cacheHit %v, want 200 hit", status, again.CacheHit)
	}
	if calls.Load() != ranBefore {
		t.Fatal("interactive resubmit re-executed despite surviving eviction")
	}

	// The evicted background sweep re-executes.
	evicted := tinyRequest(501)
	evicted.Priority = "background"
	view, status := h.submit(evicted)
	if status != http.StatusAccepted {
		t.Fatalf("evicted background resubmit: status %d, want 202", status)
	}
	h.waitState(view.ID, StateDone)
	if calls.Load() != ranBefore+1 {
		t.Fatalf("evicted background resubmit ran %d executions, want 1", calls.Load()-ranBefore)
	}

	text := h.metricsText()
	if n := labeledMetric(t, text, `refrint_sweep_cache_evicted_total{class="background"}`); n < 1 {
		t.Errorf(`background evictions = %g, want >= 1`, n)
	}
	if n := labeledMetric(t, text, `refrint_sweep_cache_evicted_total{class="interactive"}`); n != 0 {
		t.Errorf(`interactive evictions = %g, want 0`, n)
	}
}

// TestQuotaBatchAtClientCap is the regression for a nil-pointer panic in
// allow: with the buckets map at quotaMaxClients, charging a batch that
// contains a brand-new client used to trigger a mid-charge sweep that could
// delete a same-batch client's idle (refilled-to-full) bucket between the
// check loop and the debit loop.  The charge must succeed — and debit the
// right buckets — with the map exactly at its bound.
func TestQuotaBatchAtClientCap(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newClientQuota(1, 8, func() time.Time { return now })
	for i := 0; i < quotaMaxClients; i++ {
		q.allow(map[string]int{fmt.Sprintf("c%d", i): 1})
	}
	// Let every tracked bucket refill to full: the old mid-charge sweep
	// deleted exactly these when the newcomer's insertion hit the cap.
	now = now.Add(time.Hour)
	ok, denied, _ := q.allow(map[string]int{"c0": 2, "newcomer": 3})
	if !ok {
		t.Fatalf("batch at client cap denied (client %q)", denied)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if b := q.buckets["c0"]; b == nil || b.tokens != 6 {
		t.Fatalf("c0 bucket = %+v, want 6 tokens (burst 8 - 2)", b)
	}
	if b := q.buckets["newcomer"]; b == nil || b.tokens != 5 {
		t.Fatalf("newcomer bucket = %+v, want 5 tokens (burst 8 - 3)", b)
	}
}

// TestQuotaHardBound floods the quota with unique client labels whose
// buckets are all non-full — the idle-bucket sweep can free nothing — and
// asserts the map stays hard-bounded anyway via stalest-first eviction.
func TestQuotaHardBound(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newClientQuota(0.001, 4, func() time.Time { return now })
	last := ""
	for i := 0; i < quotaMaxClients+600; i++ {
		now = now.Add(time.Millisecond)
		last = fmt.Sprintf("churn%d", i)
		if ok, _, _ := q.allow(map[string]int{last: 1}); !ok {
			t.Fatalf("fresh client %d denied", i)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.buckets); n > quotaMaxClients {
		t.Fatalf("buckets map grew to %d, want <= %d", n, quotaMaxClients)
	}
	if q.buckets[last] == nil {
		t.Fatal("stalest-first eviction discarded the newest bucket")
	}
}

// TestQueueFull503RefundsQuota is the regression for capacity rejections
// burning quota tokens: a client that backs off per the 503's Retry-After
// must find its tokens intact on retry, not a drained bucket answering 429.
func TestQueueFull503RefundsQuota(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Shards:          1,
		ClassQueueDepth: [sched.NumClasses]int{1, 1, 1},
		ClientRate:      0.001,
		ClientBurst:     3,
		Execute:         exec.fn,
	})

	first := tinyRequest(1)
	first.Client = "hot"
	if _, status := h.submit(first); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	<-exec.started // the worker holds it; its queue slot is free again
	second := tinyRequest(2)
	second.Client = "hot"
	if _, status := h.submit(second); status != http.StatusAccepted {
		t.Fatalf("second submit: status %d", status)
	}

	// The interactive queue (depth 1) is now full.  Every further fresh
	// sweep is a capacity rejection, and each refunds its token: with burst
	// 3 and ~no refill, a third and fourth attempt must both be 503 — the
	// fourth would be a 429 if the third had burned the last token.
	for seed := int64(3); seed <= 4; seed++ {
		req := tinyRequest(seed)
		req.Client = "hot"
		var body errorBody
		resp := h.do("POST", "/v1/sweeps", req, &body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("seed %d into full queue: status %d (%s), want 503", seed, resp.StatusCode, body.Error)
		}
		retryAfterHeader(t, resp)
	}

	// The batch endpoint refunds the same way: a batch needing more slots
	// than its class has left is rejected for capacity (503) on every
	// retry, never laundered into a quota 429.
	batch := BatchRequest{Client: "batchy", Requests: []refrint.SweepRequest{
		tinyRequest(5), tinyRequest(6),
	}}
	for try := 0; try < 2; try++ {
		var body errorBody
		resp := h.do("POST", "/v1/batches", batch, &body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("batch try %d: status %d (%s), want 503", try, resp.StatusCode, body.Error)
		}
		retryAfterHeader(t, resp)
	}
}

// --- small local helpers ---

func progressOf(done, total int) sweep.Progress { return sweep.Progress{Done: done, Total: total} }

// waitProgress reads the firehose until a progress event with at least the
// wanted done count arrives.
func waitProgress(t *testing.T, st *sseStream, done int) {
	t.Helper()
	for {
		ev, _ := st.until("progress")
		if _, p := ev.progressPayload(t); p.Done >= done {
			return
		}
	}
}
