package event

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// popDue drains through a fresh buffer.
func popDue(w *FrameWheel, now int64, max int) []WheelEntry {
	return w.PopDueInto(now, max, nil)
}

// ids returns the popped ids in order.
func ids(due []WheelEntry) []int64 {
	out := make([]int64, len(due))
	for i, e := range due {
		out[i] = e.ID
	}
	return out
}

func equalIDs(got []WheelEntry, want ...int64) bool { return slices.Equal(ids(got), want) }

func TestWheelBasic(t *testing.T) {
	w := NewFrameWheel(1, 4, 0)
	if w.Len() != 0 {
		t.Fatal("new wheel should be empty")
	}
	if _, ok := w.NextDeadline(); ok {
		t.Fatal("empty wheel should have no deadline")
	}
	w.Schedule(100, 1)
	w.Schedule(50, 2)
	w.Schedule(150, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if d, ok := w.NextDeadline(); !ok || d != 50 {
		t.Fatalf("NextDeadline = %d,%v want 50,true", d, ok)
	}
	if due := popDue(w, 99, -1); !equalIDs(due, 2) {
		t.Fatalf("PopDue(99) = %+v, want the ID 2 entry", due)
	}
	if due := popDue(w, 200, -1); !equalIDs(due, 1, 3) {
		t.Fatalf("PopDue(200) = %+v, want IDs 1 then 3", due)
	}
	if w.Len() != 0 {
		t.Errorf("wheel should be empty, len = %d", w.Len())
	}
}

func TestWheelNothingDue(t *testing.T) {
	w := NewFrameWheel(16, 2, 0)
	w.Schedule(1000, 1)
	if due := popDue(w, 999, -1); len(due) != 0 {
		t.Errorf("PopDue before deadline returned %+v", due)
	}
	if w.Len() != 1 {
		t.Errorf("entry should remain, len = %d", w.Len())
	}
}

func TestWheelMaxLimit(t *testing.T) {
	w := NewFrameWheel(1, 10, 0)
	for i := 0; i < 10; i++ {
		w.Schedule(int64(i), i)
	}
	if due := popDue(w, 100, 3); !equalIDs(due, 0, 1, 2) {
		t.Fatalf("PopDue(max=3) = %+v, want IDs 0..2", due)
	}
	if w.Len() != 7 {
		t.Errorf("Len = %d, want 7", w.Len())
	}
	// Remaining entries still retrievable.
	if rest := popDue(w, 100, -1); len(rest) != 7 {
		t.Errorf("rest = %d entries, want 7", len(rest))
	}
	if due := popDue(w, 100, 0); len(due) != 0 {
		t.Errorf("PopDue(max=0) = %+v, want nothing", due)
	}
}

func TestWheelCoarseGranularity(t *testing.T) {
	w := NewFrameWheel(64, 4, 0)
	w.Schedule(70, 1)  // bucket 1
	w.Schedule(130, 2) // bucket 2
	w.Schedule(10, 3)  // bucket 0
	if due := popDue(w, 70, -1); !equalIDs(due, 3, 1) {
		t.Errorf("PopDue(70) = %+v, want IDs 3 then 1 only", due)
	}
	if d, ok := w.NextDeadline(); !ok || d != 130 {
		t.Errorf("NextDeadline = %d,%v, want 130", d, ok)
	}
}

func TestWheelReschedulingAfterDrain(t *testing.T) {
	w := NewFrameWheel(8, 3, 0)
	w.Schedule(10, 1)
	popDue(w, 20, -1)
	// After a full drain the wheel must accept earlier deadlines again.
	w.Schedule(5, 2)
	if d, ok := w.NextDeadline(); !ok || d != 5 {
		t.Errorf("NextDeadline after drain = %d,%v, want 5", d, ok)
	}
	if due := popDue(w, 5, -1); !equalIDs(due, 2) {
		t.Errorf("PopDue = %+v", due)
	}
}

func TestWheelDeadlinesNeverLostProperty(t *testing.T) {
	// Property: every scheduled entry is eventually returned exactly once,
	// and never before its deadline.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		w := NewFrameWheel(16, count, 0)
		deadlines := map[int64]int64{}
		for i := 0; i < count; i++ {
			d := rng.Int63n(10_000)
			w.Schedule(d, i)
			deadlines[int64(i)] = d
		}
		seen := map[int64]bool{}
		for now := int64(0); now <= 10_000; now += 500 {
			for _, e := range popDue(w, now, -1) {
				if seen[e.ID] || deadlines[e.ID] > now {
					return false // duplicate or early
				}
				seen[e.ID] = true
			}
		}
		return len(seen) == count && w.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWheelNextDeadlineCoarseGranularity pins NextDeadline when buckets
// hold several cycles: the earliest cycle must win even when a
// later-scheduled entry lands in the same bucket.
func TestWheelNextDeadlineCoarseGranularity(t *testing.T) {
	w := NewFrameWheel(64, 4, 0)
	w.Schedule(130, 1) // bucket 2
	w.Schedule(100, 2) // bucket 1
	w.Schedule(120, 3) // bucket 1, later insertion, earlier than 130
	if d, ok := w.NextDeadline(); !ok || d != 100 {
		t.Fatalf("NextDeadline = %d,%v, want 100,true", d, ok)
	}
	// Drain only the first bucket; the minimum moves to the next bucket.
	if due := popDue(w, 127, -1); !equalIDs(due, 2, 3) {
		t.Fatalf("PopDue(127) = %+v, want IDs 2 then 3", due)
	}
	if d, ok := w.NextDeadline(); !ok || d != 130 {
		t.Errorf("NextDeadline after drain = %d,%v, want 130,true", d, ok)
	}
}

// TestWheelNextDeadlineAfterMaxLimitedPop: a max-limited pop that stops
// mid-bucket must leave NextDeadline pointing at the remaining entries.
func TestWheelNextDeadlineAfterMaxLimitedPop(t *testing.T) {
	w := NewFrameWheel(4, 8, 0)
	for i := 0; i < 8; i++ {
		w.Schedule(10+int64(i), i) // buckets 2 and 3, four entries each
	}
	if due := popDue(w, 100, 3); len(due) != 3 {
		t.Fatalf("PopDue(max=3) returned %d entries", len(due))
	}
	if d, ok := w.NextDeadline(); !ok || d != 13 {
		t.Errorf("NextDeadline = %d,%v, want 13,true", d, ok)
	}
	if rest := popDue(w, 100, -1); len(rest) != 5 {
		t.Errorf("rest = %d entries, want 5", len(rest))
	}
	if _, ok := w.NextDeadline(); ok || w.Len() != 0 {
		t.Errorf("wheel should be empty, len = %d", w.Len())
	}
}

// TestWheelMaxLimitCoarseBuckets drains a coarse-bucketed wheel a few
// entries at a time and checks nothing is lost, duplicated or early.
func TestWheelMaxLimitCoarseBuckets(t *testing.T) {
	const n = 40
	w := NewFrameWheel(16, n, 0)
	for i := 0; i < n; i++ {
		w.Schedule(int64(i)*7, i)
	}
	seen := map[int64]bool{}
	for w.Len() > 0 {
		due := popDue(w, n*7, 3)
		if len(due) == 0 {
			t.Fatal("PopDue made no progress")
		}
		for _, e := range due {
			if seen[e.ID] {
				t.Fatalf("duplicate id %d", e.ID)
			}
			seen[e.ID] = true
		}
	}
	if len(seen) != n {
		t.Errorf("drained %d entries, want %d", len(seen), n)
	}
}

// TestWheelOverflowBeyondRing schedules far past the ring window, which
// grows the ring, then checks everything drains in order.
func TestWheelOverflowBeyondRing(t *testing.T) {
	w := NewFrameWheel(1, 4, 0) // default ring: 64 buckets
	w.Schedule(5, 1)
	w.Schedule(1_000_000, 2) // far beyond the window: grow
	w.Schedule(500_000, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if len(w.head) < 1_000_000-5+1 {
		t.Fatalf("ring of %d buckets cannot hold deadlines 5 and 1000000", len(w.head))
	}
	if d, ok := w.NextDeadline(); !ok || d != 5 {
		t.Fatalf("NextDeadline = %d,%v, want 5,true", d, ok)
	}
	if due := popDue(w, 5, -1); !equalIDs(due, 1) {
		t.Fatalf("PopDue(5) = %+v", due)
	}
	if d, ok := w.NextDeadline(); !ok || d != 500_000 {
		t.Fatalf("NextDeadline = %d,%v, want 500000,true", d, ok)
	}
	if due := popDue(w, 600_000, -1); !equalIDs(due, 3) {
		t.Fatalf("PopDue(600000) = %+v", due)
	}
	if due := popDue(w, 1_000_000, -1); !equalIDs(due, 2) {
		t.Fatalf("PopDue(1000000) = %+v", due)
	}
	if w.Len() != 0 {
		t.Errorf("Len = %d, want 0", w.Len())
	}
}

// TestWheelScheduleEarlierThanPending slides the window back (rebase) when
// a deadline earlier than everything pending is scheduled, growing the ring
// when the pending span no longer fits.
func TestWheelScheduleEarlierThanPending(t *testing.T) {
	w := NewFrameWheel(1, 4, 0)
	w.Schedule(1000, 1)
	w.Schedule(1063, 2) // same 64-bucket window as 1000
	w.Schedule(990, 3)  // earlier: window slides back, 1063 no longer fits
	if due := popDue(w, 2000, -1); !equalIDs(due, 3, 1, 2) {
		t.Errorf("drain order = %v, want [3 1 2]", ids(due))
	}
}

// TestWheelPopDueIntoReuse checks that PopDueInto appends into the supplied
// buffer, in schedule order within a bucket.
func TestWheelPopDueIntoReuse(t *testing.T) {
	w := NewFrameWheel(4, 10, 1024)
	buf := make([]WheelEntry, 0, 16)
	for round := int64(0); round < 50; round++ {
		base := round * 20
		for i := 0; i < 10; i++ {
			w.Schedule(base+int64(i), i)
		}
		buf = w.PopDueInto(base+19, -1, buf[:0])
		if len(buf) != 10 || cap(buf) != 16 {
			t.Fatalf("round %d: drained %d entries into cap %d, want 10 into the caller's 16", round, len(buf), cap(buf))
		}
		for i, e := range buf {
			if e.ID != int64(i) || e.Cycle != base+int64(i) {
				t.Fatalf("round %d: order %+v", round, buf)
			}
		}
	}
	if w.Len() != 0 {
		t.Errorf("Len = %d, want 0", w.Len())
	}
}

// TestWheelHorizonSizing checks NewFrameWheel covers the requested span, so
// scheduling a horizon ahead of a pending deadline never grows the ring.
func TestWheelHorizonSizing(t *testing.T) {
	w := NewFrameWheel(64, 2, 33_616)
	buckets := len(w.head)
	if buckets < 33_616/64+2 {
		t.Errorf("ring %d buckets cannot cover a 33616-cycle horizon", buckets)
	}
	w.Schedule(100, 0)
	w.Schedule(100+33_616, 1)
	if len(w.head) != buckets {
		t.Errorf("horizon-sized wheel grew from %d to %d buckets", buckets, len(w.head))
	}
	if w := NewFrameWheel(3, 1, 0); w.granularity != 4 || w.granShift != 2 {
		t.Errorf("granularity 3 rounded to %d (shift %d), want 4 (shift 2)", w.granularity, w.granShift)
	}
}

// TestFrameWheelReschedulePending moves a pending id: the node leaves its
// old bucket (Len unchanged) and drains at its new deadline, behind ids
// already scheduled into the new bucket.  Rescheduling to the same deadline
// keeps the node's place.
func TestFrameWheelReschedulePending(t *testing.T) {
	w := NewFrameWheel(1, 4, 0)
	w.Schedule(10, 0)
	w.Schedule(20, 1)
	w.Schedule(20, 2)
	w.Schedule(20, 0) // moves 0 behind 1 and 2
	if w.Len() != 3 {
		t.Fatalf("Len after reschedule = %d, want 3", w.Len())
	}
	if due := popDue(w, 15, -1); len(due) != 0 {
		t.Fatalf("PopDue(15) = %+v, want nothing: id 0 moved to 20", due)
	}
	w.Schedule(20, 1) // same deadline: stays ahead of 2 and 0
	if due := popDue(w, 20, -1); !equalIDs(due, 1, 2, 0) {
		t.Fatalf("drain order = %v, want [1 2 0]", ids(due))
	}
}

// TestFrameWheelCancel unlinks pending ids from the head, middle and tail
// of one bucket, and cancelling an idle id is a no-op.
func TestFrameWheelCancel(t *testing.T) {
	w := NewFrameWheel(8, 6, 0)
	for id := 0; id < 5; id++ {
		w.Schedule(40, id) // one bucket: 0 1 2 3 4
	}
	w.Cancel(0) // head
	w.Cancel(2) // middle
	w.Cancel(4) // tail
	w.Cancel(5) // never scheduled
	w.Cancel(2) // already cancelled
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	w.Schedule(41, 4) // relinks behind the survivors
	if due := popDue(w, 100, -1); !equalIDs(due, 1, 3, 4) {
		t.Fatalf("drain order = %v, want [1 3 4]", ids(due))
	}
	w.Schedule(7, 0)
	w.Cancel(0)
	if _, ok := w.NextDeadline(); ok || w.Len() != 0 {
		t.Fatalf("wheel should be empty after cancelling its only id, len = %d", w.Len())
	}
}

// TestFrameWheelDeadline reports an id's pending deadline until it pops or
// is cancelled.
func TestFrameWheelDeadline(t *testing.T) {
	w := NewFrameWheel(4, 3, 0)
	if _, ok := w.Deadline(0); ok {
		t.Fatal("unscheduled id reports a deadline")
	}
	w.Schedule(30, 0)
	w.Schedule(50, 1)
	w.Schedule(35, 0)
	if d, ok := w.Deadline(0); !ok || d != 35 {
		t.Fatalf("Deadline(0) = %d,%v, want 35,true", d, ok)
	}
	popDue(w, 40, -1)
	if _, ok := w.Deadline(0); ok {
		t.Error("popped id still reports a deadline")
	}
	w.Cancel(1)
	if _, ok := w.Deadline(1); ok {
		t.Error("cancelled id still reports a deadline")
	}
}

// wheelModel is the reference the randomized test checks FrameWheel
// against: each pending id's deadline and the sequence number of the
// Schedule call that placed it.  Due entries pop in ascending bucket order,
// then schedule order within a bucket.
type wheelModel struct {
	shift    uint
	deadline map[int]int64
	seq      map[int]int
	clock    int
}

func (m *wheelModel) schedule(cycle int64, id int) {
	if d, ok := m.deadline[id]; ok && d == cycle {
		return // FrameWheel leaves the node where it is
	}
	m.clock++
	m.deadline[id], m.seq[id] = cycle, m.clock
}

func (m *wheelModel) cancel(id int) {
	delete(m.deadline, id)
	delete(m.seq, id)
}

func (m *wheelModel) popDue(now int64, max int) []WheelEntry {
	var due []int
	for id, d := range m.deadline {
		if d <= now {
			due = append(due, id)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		bi, bj := m.deadline[due[i]]>>m.shift, m.deadline[due[j]]>>m.shift
		if bi != bj {
			return bi < bj
		}
		return m.seq[due[i]] < m.seq[due[j]]
	})
	if max >= 0 && len(due) > max {
		due = due[:max]
	}
	out := make([]WheelEntry, len(due))
	for i, id := range due {
		out[i] = WheelEntry{Cycle: m.deadline[id], ID: int64(id)}
		m.cancel(id)
	}
	return out
}

func (m *wheelModel) next() (int64, bool) {
	first, ok := int64(0), false
	for _, d := range m.deadline {
		if !ok || d < first {
			first, ok = d, true
		}
	}
	return first, ok
}

// TestWheelRandomizedAgainstReference cross-checks FrameWheel against
// wheelModel over random interleavings of schedules (including reschedules
// of pending ids, deadlines far beyond the ring and before every pending
// one), cancels and max-limited pops, comparing every popped entry and its
// position, Len, NextDeadline and Deadline.
func TestWheelRandomizedAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nIDs = 48
		w := NewFrameWheel(1+rng.Int63n(32), nIDs, rng.Int63n(4096))
		m := &wheelModel{shift: w.granShift, deadline: map[int]int64{}, seq: map[int]int{}}
		now := int64(0)
		for step := 0; step < 400; step++ {
			id := rng.Intn(nIDs)
			switch op := rng.Intn(10); {
			case op < 5:
				d := now + rng.Int63n(5000)
				switch rng.Intn(8) {
				case 0:
					d = now + rng.Int63n(1<<16) // beyond the ring: grow
				case 1:
					d = max(0, now-rng.Int63n(3000)) // before pending ones: rebase
				case 2:
					if pd, ok := m.deadline[id]; ok {
						d = pd // same deadline: no move
					}
				case 3, 4:
					d = now + rng.Int63n(64) // crowd the buckets near now
				}
				w.Schedule(d, id)
				m.schedule(d, id)
			case op < 6:
				w.Cancel(id)
				m.cancel(id)
			default:
				now += rng.Int63n(1 + rng.Int63n(800))
				limit := -1
				if rng.Intn(3) == 0 {
					limit = rng.Intn(4)
				}
				if got, want := popDue(w, now, limit), m.popDue(now, limit); !slices.Equal(got, want) {
					t.Logf("seed %d step %d: popped %v, want %v", seed, step, got, want)
					return false
				}
			}
			if w.Len() != len(m.deadline) {
				t.Logf("seed %d step %d: Len %d, want %d", seed, step, w.Len(), len(m.deadline))
				return false
			}
			gd, gok := w.NextDeadline()
			md, mok := m.next()
			if gd != md || gok != mok {
				t.Logf("seed %d step %d: NextDeadline %d,%v, want %d,%v", seed, step, gd, gok, md, mok)
				return false
			}
			md, mok = m.deadline[id]
			if gd, gok := w.Deadline(id); gok != mok || (gok && gd != md) {
				t.Logf("seed %d step %d: Deadline(%d) %d,%v, want %d,%v", seed, step, id, gd, gok, md, mok)
				return false
			}
		}
		return slices.Equal(popDue(w, 1<<40, -1), m.popDue(1<<40, -1)) && w.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
