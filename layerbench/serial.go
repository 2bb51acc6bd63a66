package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// The sim-serial cell list: three applications whose footprints span the
// LLC (FFT 2x, LU 1/8, Blackscholes 1/16) under four policies that span the
// refresh machinery (SRAM and P.all never touch the Refrint frame wheel,
// R.valid and R.WB(32,32) depend on it), on the scaled preset at 50 us.
var (
	serialApps     = []string{"FFT", "LU", "Blackscholes"}
	serialPolicies = []config.Policy{
		config.SRAMBaseline,
		{Time: config.PeriodicTime, Data: config.AllData},
		{Time: config.RefrintTime, Data: config.ValidData},
		config.RefrintWB(32, 32),
	}
)

const serialRetentionUS = 50

// cellSpec is one simulation cell: an application under a policy at a
// paper-scale retention time (ignored for SRAM) and effort scale, on the
// scaled preset.
type cellSpec struct {
	App         string
	Policy      config.Policy
	RetentionUS float64
	Effort      float64
}

func serialCells() []cellSpec {
	var cells []cellSpec
	for _, app := range serialApps {
		for _, p := range serialPolicies {
			cells = append(cells, cellSpec{App: app, Policy: p, RetentionUS: serialRetentionUS, Effort: 1})
		}
	}
	return cells
}

// Label names the cell in digests and spans, e.g. "FFT/R.WB(32,32)".
func (c cellSpec) Label() string { return c.App + "/" + c.Policy.String() }

// class is the refresh machinery the cell exercises: "sram", "periodic" or
// "refrint".
func (c cellSpec) class() string {
	switch c.Policy.Time {
	case config.PeriodicTime:
		return "periodic"
	case config.RefrintTime:
		return "refrint"
	default:
		return "sram"
	}
}

// build resolves the cell's configuration and application parameters the
// way the sweep harness does for a scaled-preset cell.
func (c cellSpec) build() (config.Config, workload.Params, error) {
	params, err := workload.Get(c.App)
	if err != nil {
		return config.Config{}, workload.Params{}, err
	}
	if c.Effort != 1 {
		params.MemOpsPerThread = max(int64(float64(params.MemOpsPerThread)*c.Effort), 1000)
	}
	cfg := config.Scaled()
	if c.Policy.Time == config.NoRefresh {
		cfg = config.AsSRAM(cfg)
	} else {
		cfg = config.AsEDRAM(cfg, c.Policy, config.ScaledRetentionUS(c.RetentionUS))
	}
	return cfg, params, nil
}

// simulate builds and runs the cell at seed.
func (c cellSpec) simulate(seed int64) (sim.Result, error) {
	cfg, params, err := c.build()
	if err != nil {
		return sim.Result{}, err
	}
	sys, err := sim.New(cfg, params, seed)
	if err != nil {
		return sim.Result{}, err
	}
	return sys.Run(), nil
}

// resultDigest is a content hash of everything a simulation reports.
func resultDigest(r sim.Result) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16]), nil
}

// committedDigests are the cell digests at the default seed, recorded from
// the simulator with --write-digests.
//
//go:embed digests.json
var committedDigestsJSON []byte

type digestFile struct {
	Seed  int64             `json:"seed"`
	Cells map[string]string `json:"cells"`
}

func loadCommittedDigests() (digestFile, error) {
	var f digestFile
	if err := json.Unmarshal(committedDigestsJSON, &f); err != nil {
		return digestFile{}, fmt.Errorf("decoding committed digests: %w", err)
	}
	return f, nil
}

// serialChecker decides whether one cell's result is correct: the model's
// identities hold, the digest equals the committed one (when digests exist
// for the seed), and every repeat of a cell reproduces its first digest.
type serialChecker struct {
	expected map[string]string
	first    map[string]string
}

func newSerialChecker(expected map[string]string) *serialChecker {
	return &serialChecker{expected: expected, first: make(map[string]string)}
}

// check returns the problems found with one result; none means correct.
func (k *serialChecker) check(c cellSpec, res sim.Result) []string {
	problems := identityProblems(c, res.Stats)
	d, err := resultDigest(res)
	if err != nil {
		return append(problems, err.Error())
	}
	label := c.Label()
	if k.expected != nil && k.expected[label] != d {
		problems = append(problems, fmt.Sprintf("%s: digest %s, committed %s", label, d, k.expected[label]))
	}
	if prev, ok := k.first[label]; !ok {
		k.first[label] = d
	} else if prev != d {
		problems = append(problems, fmt.Sprintf("%s: digest %s differs from the first run's %s", label, d, prev))
	}
	return problems
}

// identityProblems checks counter identities the model guarantees: every
// memory reference is exactly one L1 lookup; SRAM never refreshes; periodic
// policies raise no sentry interrupts; Refrint policies do no group scans.
func identityProblems(c cellSpec, st *stats.Stats) []string {
	var out []string
	l1 := st.Level(stats.IL1).Accesses() + st.Level(stats.DL1).Accesses()
	if l1 != st.MemOps {
		out = append(out, fmt.Sprintf("%s: IL1+DL1 lookups %d != memory ops %d", c.Label(), l1, st.MemOps))
	}
	switch c.class() {
	case "sram":
		if n := st.TotalOnChipRefreshes(); n != 0 {
			out = append(out, fmt.Sprintf("%s: SRAM performed %d refreshes", c.Label(), n))
		}
	case "periodic":
		if st.SentryInterrupts != 0 {
			out = append(out, fmt.Sprintf("%s: periodic policy raised %d sentry interrupts", c.Label(), st.SentryInterrupts))
		}
	case "refrint":
		if st.PeriodicGroupScans != 0 {
			out = append(out, fmt.Sprintf("%s: Refrint policy did %d group scans", c.Label(), st.PeriodicGroupScans))
		}
	}
	if st.MemOps == 0 {
		out = append(out, c.Label()+": no memory operations simulated")
	}
	return out
}

// workCounts are exact counts of modelled (simulated, not host) work.
type workCounts struct {
	draws, lookups, fills, l3Lookups  int64
	refreshes, sentryIRQs, groupScans int64
	invalidations, nocMessages, dram  int64
	cycles                            int64
	refrintLookups                    int64 // lookups in cells running a Refrint policy
}

func (w *workCounts) add(c cellSpec, st *stats.Stats) {
	var lookups, fills int64
	for l := stats.IL1; l <= stats.L3; l++ {
		lookups += st.Level(l).Accesses()
		fills += st.Level(l).Fills
	}
	w.draws += st.MemOps
	w.lookups += lookups
	w.fills += fills
	w.l3Lookups += st.Level(stats.L3).Accesses()
	w.refreshes += st.TotalOnChipRefreshes()
	w.sentryIRQs += st.SentryInterrupts
	w.groupScans += st.PeriodicGroupScans
	w.invalidations += st.CoherenceInvalidations
	w.nocMessages += st.NoCMessages
	w.dram += st.DRAMAccesses()
	w.cycles += st.Cycles
	if c.class() == "refrint" {
		w.refrintLookups += lookups
	}
}

// serialPass is the host-time record of one pass over the cell list.  Its
// times are process CPU time (see cpuNow).
type serialPass struct {
	runNS      int64
	runByClass map[string][2]int64 // class -> {run ns, memory ops}
	work       workCounts
}

// serialOut is what the sim-serial phase measured.
type serialOut struct {
	setupS    float64
	passes    []serialPass
	cellNS    [][]float64 // per cell of the list: CPU ns of New plus Run, one per pass
	cellOps   []int64     // per cell of the list: simulated memory references
	newMS     []float64   // traced only
	allocs    float64     // mean heap allocations per New+Run (traced only)
	kb        float64     // mean heap KB allocated per New+Run (traced only)
	cellCount int
}

// nsPerAccess is host CPU ns of New plus Run per simulated memory
// reference over the cell list: each cell's median over passes, summed,
// over the list's references.  A per-cell median drops a cell run that a
// pause or a busy neighbour slowed, whichever pass it fell in.
func (o serialOut) nsPerAccess() float64 {
	var ns float64
	var ops int64
	for i, xs := range o.cellNS {
		ns += median(xs)
		ops += o.cellOps[i]
	}
	if ops == 0 {
		return 0
	}
	return ns / float64(ops)
}

func (o serialOut) runNSPerAccess(class string) float64 {
	var xs []float64
	for _, p := range o.passes {
		v := p.runByClass[class]
		xs = append(xs, float64(v[0])/float64(v[1]))
	}
	return median(xs)
}

// minSerialPasses guarantees every cell runs at least twice, so the
// run-twice determinism check covers every cell on every seed, and that the
// median over passes is a middle pass rather than the faster of two.
const minSerialPasses = 3

// serialPhase simulates the cell list back to back on the calling
// goroutine, one cell per step.  Only sim.New and Run are timed, in process
// CPU time; the checks and a garbage collection run between cells, outside
// the timed window, so no cell pays for another phase's garbage.
type serialPhase struct {
	e     *env
	cells []cellSpec
	check *serialChecker
	out   serialOut
	cur   serialPass
	next  int // index of the next cell of the current pass

	mallocs, bytes uint64 // heap allocation totals over traced cells
}

// newSerialPhase resolves every cell and simulates the smallest once, so
// page faults and lazily built tables are not charged to the first pass.
func newSerialPhase(e *env) (*serialPhase, error) {
	committed, err := loadCommittedDigests()
	if err != nil {
		return nil, err
	}
	var expected map[string]string
	if e.seed == committed.Seed {
		expected = committed.Cells
	}
	s := &serialPhase{e: e, cells: serialCells(), check: newSerialChecker(expected)}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		for _, c := range s.cells {
			if _, _, err := c.build(); err != nil {
				return nil, err
			}
		}
		warm := cellSpec{App: "Blackscholes", Policy: config.SRAMBaseline, Effort: 1}
		if _, err := warm.simulate(e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s.out = serialOut{setupS: median(setups), cellCount: len(s.cells),
		cellNS: make([][]float64, len(s.cells)), cellOps: make([]int64, len(s.cells))}
	s.cur = serialPass{runByClass: make(map[string][2]int64)}
	return s, nil
}

// more reports whether the phase must go on regardless of its time: it
// stops only on a pass boundary, after at least minSerialPasses passes.
func (s *serialPhase) more() bool { return s.next != 0 || len(s.out.passes) < minSerialPasses }

func (s *serialPhase) step() error {
	e, c, p := s.e, s.cells[s.next], &s.cur
	cfg, params, err := c.build()
	if err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	if e.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	opID := e.tr.id()
	t0 := e.tr.now()
	start := cpuNow()
	sys, err := sim.New(cfg, params, e.seed)
	mid := cpuNow()
	t1 := e.tr.now()
	if err != nil {
		return fmt.Errorf("%s: %w", c.Label(), err)
	}
	res := sys.Run()
	end := cpuNow()
	t2 := e.tr.now()
	if e.tr != nil {
		runtime.ReadMemStats(&ms1)
		s.mallocs += ms1.Mallocs - ms0.Mallocs
		s.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		op := fmt.Sprintf("%s#%d", c.Label(), len(s.out.passes))
		e.tr.record(opID, 0, op, "op.cell", t0, t2)
		e.tr.add(opID, op, "sim.new", t0, t1)
		e.tr.add(opID, op, "sim.run", t1, t2)
		s.out.newMS = append(s.out.newMS, float64(mid-start)/1e6)
	}

	problems := s.check.check(c, res)
	if err := sys.CheckInvariants(); err != nil {
		problems = append(problems, fmt.Sprintf("%s: invariant: %v", c.Label(), err))
	}
	e.out.op(problems)

	runNS := end - mid
	s.out.cellNS[s.next] = append(s.out.cellNS[s.next], float64(end-start))
	s.out.cellOps[s.next] = res.Stats.MemOps
	p.runNS += runNS
	rc := p.runByClass[c.class()]
	p.runByClass[c.class()] = [2]int64{rc[0] + runNS, rc[1] + res.Stats.MemOps}
	p.work.add(c, res.Stats)

	if s.next++; s.next == len(s.cells) {
		s.out.passes = append(s.out.passes, s.cur)
		s.cur = serialPass{runByClass: make(map[string][2]int64)}
		s.next = 0
	}
	return nil
}

// finish returns what the phase measured over its whole passes.
func (s *serialPhase) finish() serialOut {
	if runs := float64(len(s.out.passes) * len(s.cells)); s.e.tr != nil && runs > 0 {
		s.out.allocs = float64(s.mallocs) / runs
		s.out.kb = float64(s.bytes) / 1024 / runs
	}
	return s.out
}

// writeDigests simulates every cell once at seed and writes their digests
// to path, for committing as the default seed's expected results.
func writeDigests(path string, seed int64) error {
	f := digestFile{Seed: seed, Cells: make(map[string]string)}
	for _, c := range serialCells() {
		res, err := c.simulate(seed)
		if err != nil {
			return err
		}
		if p := identityProblems(c, res.Stats); len(p) > 0 {
			return fmt.Errorf("refusing to record digests: %v", p)
		}
		if f.Cells[c.Label()], err = resultDigest(res); err != nil {
			return err
		}
	}
	return writeJSONFile(path, f)
}
