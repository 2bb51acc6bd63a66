package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// The service-cold request: two applications at one retention time over the
// 14 policies plus each application's SRAM baseline, i.e. 30 cells, with a
// fresh seed per submission so no cell is ever cached or shared.
var coldApps = []string{"FFT", "Blackscholes"}

const (
	coldRetentionUS = 50
	coldEffort      = 0.25
	// serviceClients is the closed-loop client count of both service
	// workloads: one per CPU of the 2-CPU host the benchmark is sized for.
	serviceClients = 2
)

func coldRequest(seed int64) refrint.SweepRequest {
	return refrint.SweepRequest{
		Apps:             coldApps,
		RetentionTimesUS: []float64{coldRetentionUS},
		EffortScale:      coldEffort,
		Seed:             seed,
	}
}

// runFacts are the raw (unnormalized) figures of one run that a direct
// simulation must reproduce exactly.
type runFacts struct {
	Cycles, Instructions, MemOps        int64
	MemoryEnergyJ, TotalEnergyJ         float64
	OnChipRefreshes, SentryInterrupts   int64
	PolicyWritebacks, PolicyInvalidates int64
	DRAMAccesses                        int64
}

func factsOfExport(r sweep.ExportRun) runFacts {
	return runFacts{
		Cycles: r.Cycles, Instructions: r.Instructions, MemOps: r.MemOps,
		MemoryEnergyJ: r.MemoryEnergyJ, TotalEnergyJ: r.TotalEnergyJ,
		OnChipRefreshes: r.OnChipRefreshes, SentryInterrupts: r.SentryInterrupts,
		PolicyWritebacks: r.PolicyWritebacks, PolicyInvalidates: r.PolicyInvalidates,
		DRAMAccesses: r.DRAMAccesses,
	}
}

func factsOfResult(r sim.Result) runFacts {
	return runFacts{
		Cycles: r.Cycles, Instructions: r.Stats.Instructions, MemOps: r.Stats.MemOps,
		MemoryEnergyJ: r.Energy.MemoryHierarchy(), TotalEnergyJ: r.Energy.Total(),
		OnChipRefreshes: r.Stats.TotalOnChipRefreshes(), SentryInterrupts: r.Stats.SentryInterrupts,
		PolicyWritebacks: r.Stats.PolicyWritebacks, PolicyInvalidates: r.Stats.PolicyInvalidates,
		DRAMAccesses: r.Stats.DRAMAccesses(),
	}
}

// cellID names a run within a sweep: application, policy label and
// paper-scale retention (0 for the SRAM baseline).
type cellID struct {
	App         string
	Policy      string
	RetentionUS float64
}

func idOf(r sweep.ExportRun) cellID { return cellID{r.App, r.Policy, r.RetentionUS} }

// expectedCells lists the cells a request must return: every application's
// SRAM baseline plus every (retention, policy) point.
func expectedCells(req refrint.SweepRequest) map[cellID]bool {
	policies := req.Policies
	if len(policies) == 0 {
		for _, p := range config.SweepPolicies() {
			policies = append(policies, p.String())
		}
	}
	want := make(map[cellID]bool)
	for _, app := range req.Apps {
		want[cellID{app, config.SRAMBaseline.String(), 0}] = true
		for _, ret := range req.RetentionTimesUS {
			for _, p := range policies {
				want[cellID{app, p, ret}] = true
			}
		}
	}
	return want
}

// presenceProblems checks that the results hold exactly the requested cells.
func presenceProblems(req refrint.SweepRequest, ex sweep.Export) []string {
	want := expectedCells(req)
	var out []string
	seen := make(map[cellID]bool)
	for _, r := range ex.Runs {
		id := idOf(r)
		switch {
		case !want[id]:
			out = append(out, fmt.Sprintf("unexpected cell %v", id))
		case seen[id]:
			out = append(out, fmt.Sprintf("duplicate cell %v", id))
		}
		seen[id] = true
	}
	if len(seen) != len(want) {
		out = append(out, fmt.Sprintf("%d of %d cells present", len(seen), len(want)))
	}
	return out
}

// sampleProblems re-simulates one run of a sweep directly through package
// sim and compares the figures the service returned.
func sampleProblems(run sweep.ExportRun, effort float64, seed int64) []string {
	p, err := config.ParsePolicyLabel(run.Policy)
	if err != nil {
		return []string{err.Error()}
	}
	res, err := cellSpec{App: run.App, Policy: p, RetentionUS: run.RetentionUS, Effort: effort}.simulate(seed)
	if err != nil {
		return []string{err.Error()}
	}
	if got, want := factsOfExport(run), factsOfResult(res); got != want {
		return []string{fmt.Sprintf("%v seed %d: service returned %+v, direct simulation %+v", idOf(run), seed, got, want)}
	}
	return nil
}

// splitmix is a stateless 64-bit mixer, used to derive per-item choices
// from a seed without sharing a generator between goroutines.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// coldOut is what the service-cold phase measured.
type coldOut struct {
	setupS float64
	sweepS []float64
	sims   int
	wallS  float64
	rates  []float64 // completed simulations per second, one per step
	layers *layerTimes
	probe  *execProbe
}

// coldSweep is one completed sweep awaiting its sampled-cell check.
type coldSweep struct {
	problems []string
	sample   sweep.ExportRun
	seed     int64
}

// coldFirstSeed derives, from the workload seed, where the sequence of
// per-sweep simulation seeds starts; each sweep takes the next one.
func coldFirstSeed(seed int64) int64 {
	return 1 + rand.New(rand.NewSource(seed^0x636f6c64)).Int63n(1<<40)
}

// coldPhase drives a fresh service with two closed-loop clients; in each
// step every client submits a never-seen 30-cell sweep, waits for it to
// finish and fetches its results.
type coldPhase struct {
	e     *env
	svc   *service
	dir   string
	seeds atomic.Int64
	out   coldOut

	mu   sync.Mutex
	done []coldSweep
}

// newColdPhase opens a fresh store and server and completes one small
// sweep, which brings every layer past its first-use costs.
func newColdPhase(e *env) (*coldPhase, error) {
	c := &coldPhase{e: e, out: coldOut{layers: &layerTimes{}, probe: &execProbe{tr: e.tr}}}
	c.seeds.Store(coldFirstSeed(e.seed))
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if c.svc != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if c.dir, err = os.MkdirTemp(e.workDir, "cold-"); err != nil {
			return nil, fmt.Errorf("creating store directory: %w", err)
		}
		if c.svc, err = startService(c.dir, store.Options{}, c.out.probe); err != nil {
			return nil, err
		}
		req := refrint.SweepRequest{Apps: []string{"Blackscholes"}, RetentionTimesUS: []float64{coldRetentionUS},
			Policies: []string{"R.valid"}, EffortScale: coldEffort, Seed: c.seeds.Add(1)}
		call, err := c.svc.call(nil, 0, "", req)
		if err == nil {
			if p := presenceProblems(req, call.export); len(p) > 0 {
				err = fmt.Errorf("%v", p)
			}
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("set-up sweep: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.out.setupS = median(setups)
	c.out.probe.reset()
	return c, nil
}

// close stops the service and removes its store.
func (c *coldPhase) close() error {
	err := c.svc.close()
	os.RemoveAll(c.dir)
	return err
}

// step is one round: each client runs one sweep.  The round's throughput
// is a sample of sims_per_s.
func (c *coldPhase) step() error {
	c.mu.Lock()
	sims0 := c.out.sims
	c.mu.Unlock()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.sweep()
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	c.mu.Lock()
	c.out.rates = append(c.out.rates, float64(c.out.sims-sims0)/wall)
	c.mu.Unlock()
	c.out.wallS += wall
	return nil
}

// sweep is one client operation.
func (c *coldPhase) sweep() {
	e := c.e
	seed := c.seeds.Add(1)
	req := coldRequest(seed)
	op := fmt.Sprintf("cold-%d", seed)
	opID := e.tr.id()
	if e.tr != nil {
		opts, err := req.Options()
		if err != nil {
			e.out.op([]string{err.Error()})
			return
		}
		c.out.probe.expect(opts.Key(), opID)
	}
	t0 := e.tr.now()
	began := time.Now()
	call, err := c.svc.call(e.tr, opID, op, req)
	latency := time.Since(began)
	e.tr.record(opID, 0, op, "op.sweep", t0, e.tr.now())
	if err != nil {
		e.out.op([]string{err.Error()})
		return
	}
	problems := presenceProblems(req, call.export)
	if e.tr != nil {
		pt, err := c.svc.importTrace(e.tr, opID, op, call.job.ID)
		if err != nil {
			problems = append(problems, err.Error())
		}
		c.out.layers.observe(call, pt)
	}
	s := coldSweep{problems: problems, seed: seed}
	if n := len(call.export.Runs); n > 0 {
		s.sample = call.export.Runs[splitmix(uint64(seed))%uint64(n)]
	}
	c.mu.Lock()
	c.out.sweepS = append(c.out.sweepS, latency.Seconds())
	c.out.sims += len(call.export.Runs)
	c.done = append(c.done, s)
	c.mu.Unlock()
}

// finish stops the service, then checks every sweep's sampled cell against
// a direct simulation, outside the measured time and on one goroutine per
// client, and records the sweeps as operations.
func (c *coldPhase) finish() (coldOut, error) {
	err := c.close()
	var wg sync.WaitGroup
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(c.done); i += serviceClients {
				s := c.done[i]
				problems := s.problems
				if s.sample.App != "" {
					problems = append(problems, sampleProblems(s.sample, coldEffort, s.seed)...)
				}
				c.e.out.op(problems)
			}
		}()
	}
	wg.Wait()
	return c.out, err
}
