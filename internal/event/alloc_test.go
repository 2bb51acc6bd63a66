//go:build !race

// The race runtime instruments allocation accounting, so the AllocsPerRun
// assertions here only run in the plain test suite (the tier-1 gate).
package event

import "testing"

// TestFrameWheelZeroAllocs asserts the FrameWheel never allocates after
// construction: nodes are preallocated per id, and rescheduling moves them.
func TestFrameWheelZeroAllocs(t *testing.T) {
	const ids = 256
	w := NewFrameWheel(64, ids, 40_000)
	buf := make([]WheelEntry, 0, ids)
	now := int64(0)
	cycle := func() {
		for id := 0; id < ids; id++ {
			w.Schedule(now+1000+int64(id), id)
		}
		now += 40_000
		buf = w.PopDueInto(now, -1, buf[:0])
		if len(buf) != ids {
			t.Fatalf("drained %d entries, want %d", len(buf), ids)
		}
	}
	cycle() // settle the window
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("FrameWheel allocates %.2f objects per schedule/drain cycle, want 0", avg)
	}
}
