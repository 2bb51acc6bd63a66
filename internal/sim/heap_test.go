package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refHeap is the reference for coreHeap: container/heap over the same
// entries with the same time-only Less, so any difference in pop order,
// ties included, points at coreHeap's sift routines.
type refHeap []coreEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(coreEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestCoreHeapRandomizedAgainstContainerHeap drives coreHeap and refHeap
// through random init, push and pop sequences.  Times come from a small
// range, so most pushes tie with entries already queued, and every entry
// carries a distinct tile, so a tie that resolves differently shows up as a
// different (tile, time) pop.  The run loop's golden figure series depend
// on this order.
func TestCoreHeapRandomizedAgainstContainerHeap(t *testing.T) {
	ties := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := 1 + rng.Int63n(8)
		tile := 0
		next := func(base int64) coreEntry {
			tile++
			return coreEntry{tile: tile, time: base + rng.Int63n(span)}
		}

		n := rng.Intn(40)
		got := make(coreHeap, 0, n)
		want := make(refHeap, 0, n)
		for i := 0; i < n; i++ {
			e := next(0)
			got = append(got, e)
			want = append(want, e)
		}
		got.init()
		heap.Init(&want)

		var now int64
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(40); {
			case op == 0:
				// Append unordered entries and re-establish the heap.
				for k := rng.Intn(8); k > 0; k-- {
					e := next(now)
					got = append(got, e)
					want = append(want, e)
				}
				got.init()
				heap.Init(&want)
			case len(want) == 0 || op < 20:
				// Like the run loop, a pushed core's clock is at or after the
				// last popped one.
				e := next(now)
				got.push(e)
				heap.Push(&want, e)
			default:
				g, w := got.pop(), heap.Pop(&want).(coreEntry)
				if g != w {
					t.Logf("seed %d step %d: pop = %+v, want %+v", seed, step, g, w)
					return false
				}
				if len(want) > 0 && want[0].time == w.time {
					ties++
				}
				now = w.time
			}
			if !slices.Equal([]coreEntry(got), []coreEntry(want)) {
				t.Logf("seed %d step %d: heap array %v, want %v", seed, step, got, want)
				return false
			}
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(coreEntry)
			if g != w {
				t.Logf("seed %d drain: pop = %+v, want %+v", seed, g, w)
				return false
			}
		}
		if len(got) != 0 {
			t.Logf("seed %d: coreHeap kept %d entries after the reference drained", seed, len(got))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if ties == 0 {
		t.Error("no pop left an equal-time entry on top")
	}
}
