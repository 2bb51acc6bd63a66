package coherence

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"refrint/internal/mem"
)

// mapDirectory is the reference for Directory: the same MESI transitions
// kept in a Go map, so any disagreement points at the open-addressing table
// (probing, grow, backward-shift deletion) rather than the protocol.
type mapDirectory struct {
	lines                     map[mem.LineAddr]Entry
	invalidations, downgrades int64
	dirtyForwards             int64
}

func (m *mapDirectory) get(addr mem.LineAddr) Entry {
	e, ok := m.lines[addr]
	if !ok {
		e = Entry{Owner: -1, State: Uncached}
	}
	return e
}

func (m *mapDirectory) read(addr mem.LineAddr, core int) Action {
	e := m.get(addr)
	act := Action{DowngradeCore: -1}
	switch {
	case e.State == Uncached:
		e.State, e.Owner = SharedClean, core
	case e.State == SharedClean && e.Owner >= 0 && e.Owner != core:
		act.DowngradeCore = e.Owner
		m.downgrades++
		e.Owner = -1
	case e.State == OwnedModified && e.Owner != core:
		act = Action{DowngradeCore: e.Owner, DirtyForward: true, WritebackToL3: true}
		m.downgrades++
		m.dirtyForwards++
		e.Owner, e.State = -1, SharedClean
	}
	e.Sharers |= 1 << uint(core)
	m.lines[addr] = e
	return act
}

func (m *mapDirectory) write(addr mem.LineAddr, core int) Action {
	e := m.get(addr)
	act := Action{DowngradeCore: -1}
	if e.State == OwnedModified && e.Owner == core {
		m.lines[addr] = e
		return act
	}
	for c := 0; c < 32; c++ {
		if c != core && e.Sharers&(1<<uint(c)) != 0 {
			act.Invalidates |= 1 << uint(c)
			m.invalidations++
		}
	}
	if e.State == OwnedModified {
		act.DirtyForward, act.WritebackToL3 = true, true
		m.dirtyForwards++
	}
	m.lines[addr] = Entry{Sharers: 1 << uint(core), Owner: core, State: OwnedModified}
	return act
}

// drop removes core's private copy; wroteBack distinguishes SharerWroteBack
// from a clean SharerEvicted.
func (m *mapDirectory) drop(addr mem.LineAddr, core int, wroteBack bool) {
	e, ok := m.lines[addr]
	if !ok {
		return
	}
	e.Sharers &^= 1 << uint(core)
	if e.Owner == core {
		e.Owner = -1
		if !wroteBack && e.State == OwnedModified {
			e.State = SharedClean
		}
	}
	switch {
	case e.Sharers == 0:
		e = Entry{Owner: -1, State: Uncached}
	case wroteBack:
		e.State = SharedClean
	}
	m.lines[addr] = e
}

func (m *mapDirectory) invalidate(addr mem.LineAddr) Action {
	act := Action{DowngradeCore: -1}
	e, ok := m.lines[addr]
	if !ok {
		return act
	}
	act.Invalidates = CoreSet(e.Sharers)
	m.invalidations += int64(act.Invalidates.Len())
	if e.Owner >= 0 && e.State == OwnedModified {
		act.DirtyForward = true
		m.dirtyForwards++
	}
	delete(m.lines, addr)
	return act
}

// TestDirectoryRandomizedAgainstMap cross-checks Directory against
// mapDirectory over random Read, Write, SharerEvicted, SharerWroteBack and
// InvalidateLine sequences.  Most address pools outgrow the initial table,
// so grow runs, and frequent invalidations exercise the backward-shift
// remove inside long probe runs.  Every returned Action,
// Lookup of the touched line, Entries() and the message counters are
// compared after each operation, and every line is compared at the end.
func TestDirectoryRandomizedAgainstMap(t *testing.T) {
	grew := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cores := 1 + rng.Intn(32)
		pool := 64 + rng.Intn(2048)
		d := New(cores)
		m := &mapDirectory{lines: map[mem.LineAddr]Entry{}}
		check := func(step int, addr mem.LineAddr) bool {
			got, want := d.Lookup(addr), m.lines[addr]
			if _, ok := m.lines[addr]; (got != nil) != ok || (ok && *got != want) {
				t.Logf("seed %d step %d: Lookup(%d) = %v, want %v (present %v)", seed, step, addr, got, want, ok)
				return false
			}
			return true
		}
		for step := 0; step < 3000; step++ {
			// Half the lines are spread over the high address bits.
			addr := mem.LineAddr(rng.Intn(pool))
			if rng.Intn(2) == 0 {
				addr *= 1 << 20
			}
			core := rng.Intn(cores)
			var got, want Action
			switch op := rng.Intn(10); {
			case op < 3:
				got, want = d.Read(addr, core), m.read(addr, core)
			case op < 5:
				got, want = d.Write(addr, core), m.write(addr, core)
			case op < 6:
				d.SharerEvicted(addr, core)
				m.drop(addr, core, false)
			case op < 7:
				d.SharerWroteBack(addr, core)
				m.drop(addr, core, true)
			default:
				got, want = d.InvalidateLine(addr), m.invalidate(addr)
			}
			if got != want {
				t.Logf("seed %d step %d: action %+v, want %+v", seed, step, got, want)
				return false
			}
			if !check(step, addr) {
				return false
			}
			if d.Entries() != len(m.lines) {
				t.Logf("seed %d step %d: Entries %d, want %d", seed, step, d.Entries(), len(m.lines))
				return false
			}
			if d.InvalidationsSent() != m.invalidations || d.DowngradesSent() != m.downgrades || d.DirtyForwards() != m.dirtyForwards {
				t.Logf("seed %d step %d: counters %d/%d/%d, want %d/%d/%d", seed, step,
					d.InvalidationsSent(), d.DowngradesSent(), d.DirtyForwards(), m.invalidations, m.downgrades, m.dirtyForwards)
				return false
			}
		}
		for addr := range m.lines {
			if !check(-1, addr) {
				return false
			}
		}
		if len(d.keys) > dirInitialSlots {
			grew++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if grew == 0 {
		t.Error("no run grew the table")
	}
}

// TestCoreSetRandomizedAgainstBools checks CoreSet against a []bool model
// of 32 cores.  Random adds and removes, built with the same bit operations
// the directory uses, are followed by Len, Empty and Contains for every
// core; a Pop loop must then yield exactly the model's cores in ascending
// order, with each remainder holding the cores not yet popped.
func TestCoreSetRandomizedAgainstBools(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s CoreSet
		model := make([]bool, 32)
		for step := 0; step < 200; step++ {
			core := rng.Intn(32)
			if rng.Intn(3) == 0 {
				s &^= 1 << uint(core)
				model[core] = false
			} else {
				s |= 1 << uint(core)
				model[core] = true
			}
			var want []int
			for c, in := range model {
				if s.Contains(c) != in {
					t.Logf("seed %d step %d: Contains(%d) = %v, want %v", seed, step, c, !in, in)
					return false
				}
				if in {
					want = append(want, c)
				}
			}
			if s.Len() != len(want) || s.Empty() != (len(want) == 0) {
				t.Logf("seed %d step %d: Len %d Empty %v, want %d %v", seed, step, s.Len(), s.Empty(), len(want), len(want) == 0)
				return false
			}
			var got []int
			for cs := s; !cs.Empty(); {
				var c int
				c, cs = cs.Pop()
				got = append(got, c)
				if cs.Contains(c) || cs.Len() != len(want)-len(got) {
					t.Logf("seed %d step %d: Pop() = %d leaves %b", seed, step, c, cs)
					return false
				}
			}
			if !slices.Equal(got, want) {
				t.Logf("seed %d step %d: Pop order %v, want %v", seed, step, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
