package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// modelItem is one submission in schedModel.  ver counts the handles Promote
// issued for it: only the newest handle is live.
type modelItem struct {
	id     int
	client string
	class  Class
	at     time.Time
	ver    int
	state  uint8 // itemQueued, itemCancelled (also: finished) or itemTaken
}

// modelClass is one priority class: a slice FIFO per client and the ring of
// clients with queued items, in the order they joined it.
type modelClass struct {
	fifo map[string][]*modelItem
	ring []string
	next int
}

// schedModel is the slice-based reference for Scheduler: the class by
// weighted round-robin credits, the client by a ring in arrival order, FIFO
// per client, and aging charged like Promote.  Cancelled items leave their
// FIFO at once instead of lingering as tombstones.
type schedModel struct {
	cfg       Config
	credits   [NumClasses]int
	classes   [NumClasses]modelClass
	items     map[int]*modelItem
	waitSum   [NumClasses]time.Duration
	waitCount [NumClasses]int64
	aged      [NumClasses][NumClasses]int64
	busy      int
}

func newSchedModel(cfg Config) *schedModel {
	m := &schedModel{cfg: cfg, credits: cfg.Weights, items: map[int]*modelItem{}}
	for c := range m.classes {
		m.classes[c].fifo = map[string][]*modelItem{}
	}
	return m
}

func (m *schedModel) queued() [NumClasses]int {
	var q [NumClasses]int
	for c := range m.classes {
		for _, f := range m.classes[c].fifo {
			q[c] += len(f)
		}
	}
	return q
}

func (m *schedModel) push(it *modelItem) {
	mc := &m.classes[it.class]
	if len(mc.fifo[it.client]) == 0 {
		mc.ring = append(mc.ring, it.client)
	}
	mc.fifo[it.client] = append(mc.fifo[it.client], it)
}

// remove takes a queued item out of its FIFO; a drained client leaves the
// ring and the cursor keeps pointing at the same next client.
func (m *schedModel) remove(it *modelItem) {
	mc := &m.classes[it.class]
	f := mc.fifo[it.client]
	i := slices.Index(f, it)
	f = slices.Delete(f, i, i+1)
	if len(f) > 0 {
		mc.fifo[it.client] = f
		return
	}
	delete(mc.fifo, it.client)
	r := slices.Index(mc.ring, it.client)
	mc.ring = slices.Delete(mc.ring, r, r+1)
	if mc.next > r {
		mc.next--
	}
}

func (m *schedModel) submit(id int, client string, class Class, now time.Time) bool {
	if m.queued()[class] >= m.cfg.Depth[class] {
		return false
	}
	it := &modelItem{id: id, client: client, class: class, at: now, state: itemQueued}
	m.items[id] = it
	m.push(it)
	return true
}

func (m *schedModel) live(id, ver int) *modelItem {
	if it := m.items[id]; it != nil && it.ver == ver && it.state == itemQueued {
		return it
	}
	return nil
}

func (m *schedModel) cancel(id, ver int) bool {
	it := m.live(id, ver)
	if it == nil {
		return false
	}
	m.remove(it)
	it.state = itemCancelled
	return true
}

func (m *schedModel) promote(id, ver int, to Class, now time.Time) bool {
	it := m.live(id, ver)
	if it == nil {
		return false
	}
	if it.class == to {
		return true
	}
	if m.queued()[to] >= m.cfg.Depth[to] {
		return false
	}
	m.remove(it)
	m.waitSum[it.class] += now.Sub(it.at)
	it.class, it.at = to, now
	it.ver++
	m.push(it)
	return true
}

func (m *schedModel) take(now time.Time) *modelItem {
	q := m.queued()
	if q == [NumClasses]int{} {
		return nil
	}
	c := Class(-1)
	for c < 0 {
		for cc := Class(0); cc < NumClasses; cc++ {
			if q[cc] > 0 && m.credits[cc] > 0 {
				c = cc
				m.credits[cc]--
				break
			}
		}
		if c < 0 {
			m.credits = m.cfg.Weights
		}
	}
	mc := &m.classes[c]
	if mc.next >= len(mc.ring) {
		mc.next = 0
	}
	client := mc.ring[mc.next]
	it := mc.fifo[client][0]
	if len(mc.fifo[client]) > 1 {
		mc.next++
	}
	m.remove(it)
	it.state = itemTaken
	m.busy++
	m.waitSum[c] += now.Sub(it.at)
	m.waitCount[c]++
	return it
}

func (m *schedModel) done(id int) {
	m.items[id].state = itemCancelled
	m.busy--
}

// age moves every overdue item one class up, oldest first per client and
// clients in ring order, Batch before Background, as long as the target
// class has room.  It returns the hops in order.
func (m *schedModel) age(now time.Time) []agedItem {
	if m.cfg.AgeAfter <= 0 {
		return nil
	}
	var out []agedItem
	for _, hop := range [...][2]Class{{Batch, Interactive}, {Background, Batch}} {
		from, to := hop[0], hop[1]
		mc := &m.classes[from]
		for ci := 0; ci < len(mc.ring); {
			client := mc.ring[ci]
			for len(mc.fifo[client]) > 0 {
				it := mc.fifo[client][0]
				if now.Sub(it.at) < m.cfg.AgeAfter || m.queued()[to] >= m.cfg.Depth[to] {
					break
				}
				m.remove(it)
				m.waitSum[from] += now.Sub(it.at)
				it.class, it.at = to, now
				m.push(it)
				m.aged[from][to]++
				out = append(out, agedItem{payload: it.id, from: from, to: to})
			}
			if ci < len(mc.ring) && mc.ring[ci] == client {
				ci++
			}
		}
	}
	return out
}

// TestSchedulerRandomizedAgainstReference cross-checks Scheduler against
// schedModel over random interleavings of Submit, Cancel, Promote, AgeOnce,
// tryNext and done on a fake clock, with random depths, weights and aging,
// comparing every result, dequeued payload and class, aging hop, Queued,
// Free and the Stats counters.
func TestSchedulerRandomizedAgainstReference(t *testing.T) {
	clients := [...]string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1000, 0)
		var hops []agedItem
		cfg := Config{
			Workers:  1 + rng.Intn(3),
			AgeAfter: [...]time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond}[rng.Intn(3)],
			Now:      func() time.Time { return now },
			OnAge: func(payload any, from, to Class) {
				hops = append(hops, agedItem{payload: payload, from: from, to: to})
			},
		}
		for c := range cfg.Depth {
			cfg.Depth[c] = 1 + rng.Intn(6)
			cfg.Weights[c] = 1 + rng.Intn(4)
		}
		s := New(cfg)
		m := newSchedModel(cfg)
		type handle struct {
			h       Handle
			id, ver int
		}
		var handles []handle
		var running []*item
		nextID := 0
		fail := func(step int, format string, args ...any) bool {
			t.Logf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			return false
		}
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(20); {
			case op < 7:
				client, class := clients[rng.Intn(len(clients))], Class(rng.Intn(NumClasses))
				h, ok := s.Submit(client, class, nextID)
				if want := m.submit(nextID, client, class, now); ok != want {
					return fail(step, "Submit(%s, %v) = %v, want %v", client, class, ok, want)
				}
				if ok {
					handles = append(handles, handle{h, nextID, 0})
				}
				nextID++
			case op < 11:
				it := s.tryNext()
				want := m.take(now)
				if (it == nil) != (want == nil) {
					return fail(step, "tryNext = %v, want %v", it, want)
				}
				if it == nil {
					break
				}
				if it.payload != want.id || it.class != want.class {
					return fail(step, "tryNext = %v/%v, want %v/%v", it.payload, it.class, want.id, want.class)
				}
				running = append(running, it)
			case op < 13:
				if len(running) == 0 {
					break
				}
				i := rng.Intn(len(running))
				m.done(running[i].payload.(int))
				s.done(running[i])
				running = slices.Delete(running, i, i+1)
			case op < 15:
				if len(handles) == 0 {
					break
				}
				hd := handles[rng.Intn(len(handles))]
				if got, want := s.StillQueued(hd.h), m.live(hd.id, hd.ver) != nil; got != want {
					return fail(step, "StillQueued(%d v%d) = %v, want %v", hd.id, hd.ver, got, want)
				}
				if got, want := s.Cancel(hd.h), m.cancel(hd.id, hd.ver); got != want {
					return fail(step, "Cancel(%d v%d) = %v, want %v", hd.id, hd.ver, got, want)
				}
			case op < 17:
				if len(handles) == 0 {
					break
				}
				hd := handles[rng.Intn(len(handles))]
				to := Class(rng.Intn(NumClasses))
				before := m.live(hd.id, hd.ver)
				moves := before != nil && before.class != to
				h, ok := s.Promote(hd.h, to)
				if want := m.promote(hd.id, hd.ver, to, now); ok != want {
					return fail(step, "Promote(%d v%d, %v) = %v, want %v", hd.id, hd.ver, to, ok, want)
				}
				if ok && moves {
					handles = append(handles, handle{h, hd.id, hd.ver + 1})
				}
			case op < 18:
				hops = hops[:0]
				n := s.AgeOnce()
				want := m.age(now)
				if n != len(want) || fmt.Sprint(hops) != fmt.Sprint(want) {
					return fail(step, "AgeOnce = %d %v, want %v", n, hops, want)
				}
			default:
				now = now.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
			}
			st := s.Stats()
			q := m.queued()
			total := q[0] + q[1] + q[2]
			if st.Queued != q || s.Queued() != total {
				return fail(step, "Queued %v/%d, want %v/%d", st.Queued, s.Queued(), q, total)
			}
			for c := Class(0); c < NumClasses; c++ {
				if got, want := s.Free(c), cfg.Depth[c]-q[c]; got != want {
					return fail(step, "Free(%v) = %d, want %d", c, got, want)
				}
			}
			if st.Busy != m.busy || st.WaitSum != m.waitSum || st.WaitCount != m.waitCount || st.Aged != m.aged {
				return fail(step, "Stats %+v, want busy %d wait %v/%v aged %v", st, m.busy, m.waitSum, m.waitCount, m.aged)
			}
		}
		for {
			it, want := s.tryNext(), m.take(now)
			if it == nil || want == nil {
				return it == nil && want == nil && s.Queued() == 0
			}
			if it.payload != want.id {
				return fail(-1, "drain = %v, want %v", it.payload, want.id)
			}
			s.done(it)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
