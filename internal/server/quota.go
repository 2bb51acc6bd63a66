package server

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// This file is the admission-control layer: per-client token-bucket rate
// limits on submissions, and validation of wire-supplied client labels.
//
// Client labels are arbitrary wire input that flows into scheduler maps,
// quota buckets and /metrics label values, so they are bounded and
// charset-checked at the door (validateClient); garbage gets HTTP 400.
// Quotas are off by default: with Config.ClientRate set, every submission
// charges its client's bucket one token per sweep request (a batch charges
// len(requests)), and an empty bucket answers HTTP 429 with a Retry-After
// hint telling a well-behaved client exactly when tokens will exist again.
// Unlabeled submissions share the "" bucket, so anonymity is not a quota
// escape hatch.
//
// The charge lands at submission time, before the server looks at caches or
// queues: this is a submission-rate limit, so a submission served straight
// from the result cache still counts.  The one exception is a submission the
// server itself turns away for queue capacity (503) — the handlers refund
// those tokens (see refund), so a client honoring the 503's Retry-After is
// not double-charged into 429s.

// maxClientLabel bounds wire-supplied client labels.
const maxClientLabel = 64

// validateClient rejects client labels that are too long or stray outside a
// printable, metrics-safe charset (letters, digits, and -_.:@/+).  The empty
// label is fine: it is the anonymous tenant.
func validateClient(s string) error {
	if len(s) > maxClientLabel {
		return fmt.Errorf("client label longer than %d bytes", maxClientLabel)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.', c == ':', c == '@', c == '/', c == '+':
		default:
			return fmt.Errorf("client label contains invalid byte %q (want letters, digits or -_.:@/+)", c)
		}
	}
	return nil
}

// quotaMaxClients bounds how many client buckets are tracked at once.  When
// insertions push past it, boundLocked first discards full (idle) buckets —
// a full bucket reconstructs losslessly on the client's next submission —
// and hard-evicts the stalest buckets if that frees nothing.
const quotaMaxClients = 4096

// throttleMaxClients bounds how many distinct client labels get their own
// refrint_client_throttled_total series; beyond it, throttles are charged to
// the "_other" label so a label-churning client cannot blow up metrics
// cardinality.
const throttleMaxClients = 64

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// clientQuota rate-limits submissions per client label.  It has its own
// mutex (not the server's): quota checks happen before a request touches
// any server state, and throttled floods must not contend with the
// scheduler.  A nil *clientQuota disables limiting entirely.
type clientQuota struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	now   func() time.Time

	mu        sync.Mutex
	buckets   map[string]*bucket
	throttled map[string]int64 // per-client 429 counts for /metrics
	total     int64            // all 429s, including labels folded to _other
}

// newClientQuota builds a quota tracker; rate <= 0 returns nil (disabled).
func newClientQuota(rate float64, burst int, now func() time.Time) *clientQuota {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = int(math.Ceil(rate))
	}
	if now == nil {
		now = time.Now
	}
	return &clientQuota{
		rate:      rate,
		burst:     math.Max(float64(burst), 1),
		now:       now,
		buckets:   make(map[string]*bucket),
		throttled: make(map[string]int64),
	}
}

// refillLocked returns the client's bucket refilled to now, creating it full
// when first seen.  It never evicts: insertions may transiently push the map
// past quotaMaxClients, and the caller re-bounds it with boundLocked once
// all its debits are done — never mid-operation, so a multi-client charge
// (allow) can refill several buckets in turn without an eviction
// deleting one of them underneath.  Caller holds the quota mutex.
func (q *clientQuota) refillLocked(client string, now time.Time) *bucket {
	b := q.buckets[client]
	if b == nil {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[client] = b
		return b
	}
	b.tokens = math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds())
	b.last = now
	return b
}

// recordThrottleLocked counts one 429, folding untracked labels past the
// cardinality bound into "_other".  Caller holds the quota mutex.
func (q *clientQuota) recordThrottleLocked(client string) {
	q.total++
	label := client
	if _, tracked := q.throttled[label]; !tracked && len(q.throttled) >= throttleMaxClients {
		label = "_other"
	}
	q.throttled[label]++
}

// waitFor is the time until the bucket holds a charge of need tokens.  A
// charge beyond burst can never succeed; hint the burst refill so clients
// back off hard rather than retrying a request that cannot be admitted.
func (q *clientQuota) waitFor(b *bucket, need float64) time.Duration {
	wait := (math.Min(need, q.burst) - b.tokens) / q.rate
	return time.Duration(wait * float64(time.Second))
}

// allow charges one submission — counts maps each client label to its token
// charge — atomically: either every bucket covers its charge and all are
// debited, or nothing is debited and the denied client with the longest
// refill wait is reported, with that wait as the Retry-After hint, and the
// throttle is recorded.  Atomicity matches all-or-nothing admission: a
// rejected batch must not burn anyone's tokens.  A nil quota always allows.
func (q *clientQuota) allow(counts map[string]int) (ok bool, denied string, retryAfter time.Duration) {
	if q == nil {
		return true, "", 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.boundLocked()
	now := q.now()
	found := false
	// Hold the refilled bucket pointers across both loops and debit through
	// them: the debit must hit exactly the buckets the check loop refilled,
	// independent of anything that happens to the map in between (eviction is
	// deferred to boundLocked above, but pointers make the debit immune to
	// map membership by construction — no nil lookups mid-debit).
	refilled := make(map[string]*bucket, len(counts))
	for client, n := range counts {
		b := q.refillLocked(client, now)
		refilled[client] = b
		if need := float64(n); b.tokens < need {
			if wait := q.waitFor(b, need); !found || wait > retryAfter {
				found, denied, retryAfter = true, client, wait
			}
		}
	}
	if found {
		q.recordThrottleLocked(denied)
		return false, denied, retryAfter
	}
	for client, n := range counts {
		refilled[client].tokens -= float64(n)
	}
	return true, "", 0
}

// refund re-credits tokens previously charged by allow for a
// submission the server then turned away on queue capacity (503): a
// capacity-rejected submission must not burn tokens, or a client honoring
// the 503's Retry-After hint comes back to a drained bucket and a 429.
// Credits cap at burst; a bucket evicted since the charge reconstructs full
// on the client's next submission, so a missing bucket needs nothing.  A nil
// quota (or nil counts) no-ops.
func (q *clientQuota) refund(counts map[string]int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for client, n := range counts {
		if b := q.buckets[client]; b != nil {
			b.tokens = math.Min(q.burst, b.tokens+float64(n))
		}
	}
}

// boundLocked re-bounds the buckets map after insertions.  It first sweeps
// full (hence idle) buckets; under a label-churn flood every fresh bucket is
// non-full for a while and the sweep frees nothing, so it then hard-evicts
// the stalest buckets (oldest refill time) — evicting a quotaMaxClients/8
// slack batch beyond the excess, so the O(n log n) scan runs once per
// cap/8 insertions rather than on every one.  An evicted bucket
// reconstructs full on the client's next submission — a bounded,
// one-burst-sized kindness.  It must only run after an operation's debits
// are complete, never between refill and debit (see allow).  Caller
// holds the quota mutex.
func (q *clientQuota) boundLocked() {
	if len(q.buckets) <= quotaMaxClients {
		return
	}
	q.sweepLocked()
	excess := len(q.buckets) - quotaMaxClients
	if excess <= 0 {
		return
	}
	type aged struct {
		client string
		last   time.Time
	}
	all := make([]aged, 0, len(q.buckets))
	for c, b := range q.buckets {
		all = append(all, aged{c, b.last})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].last.Before(all[j].last) })
	for _, a := range all[:min(excess+quotaMaxClients/8, len(all))] {
		delete(q.buckets, a.client)
	}
}

// sweepLocked discards full (hence idle) buckets so the map stays bounded
// under client-label churn.  A client whose bucket is discarded mid-refill
// gets a fresh full bucket next time — a bounded, one-burst-sized kindness.
func (q *clientQuota) sweepLocked() {
	now := q.now()
	for c, b := range q.buckets {
		refilled := math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds())
		if refilled >= q.burst {
			delete(q.buckets, c)
		}
	}
}

// stats snapshots the throttle counters for /metrics: per-tracked-label
// counts and the overall total.
func (q *clientQuota) stats() (byClient map[string]int64, total int64) {
	if q == nil {
		return nil, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	byClient = make(map[string]int64, len(q.throttled))
	for c, n := range q.throttled {
		byClient[c] = n
	}
	return byClient, q.total
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
