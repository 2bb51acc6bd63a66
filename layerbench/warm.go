package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// The service-warm cell pool: four applications at the three retention
// times over all 14 policies plus baselines, 172 cells, more than the
// store's 128-entry memory front, so cell reads hit both memory and disk.
var (
	warmApps       = []string{"FFT", "LU", "Blackscholes", "Barnes"}
	warmRetentions = []float64{50, 100, 200}
)

// The sizes of a service-warm round.  No record of real submission traffic
// exists, so these are sizing choices, not a traffic model.  Hits and
// cellhits run in separate closed-loop steps of a round, so no latency
// figure depends on how many of the other kind a round holds.
const (
	// warmEffort keeps the pool cheap to simulate during set-up; the timed
	// operations never simulate.
	warmEffort = 0.005
	// warmHitSweeps completed sweeps are resubmitted by hit operations.
	warmHitSweeps = 8
	// warmHitsPerClient hits per client make a round's hit step.
	warmHitsPerClient = 12
	// warmCellhitsPerClient cellhits per client make a round's cellhit
	// step.  A round adds serviceClients times as many sweeps to the
	// server's 32-entry result cache; with the hit sweeps they must all fit,
	// so a hit is always a cache hit.
	warmCellhitsPerClient = 4
	// warmFront is the store's memory-front size, which the pool must
	// exceed.
	warmFront = 128
)

// warmStore sets the store's memory front and bounds its disk budget.
// Cellhit sweeps each persist a blob; without a budget the store grows for
// as long as the run lasts, and store.Open and index writes, which scan
// every blob, slow down with it.  Set-up fills under a quarter of the
// budget, so eviction only ever removes cellhit sweep blobs, which are
// written at the background (evict-first) rank.
var warmStore = store.Options{MaxBytes: 4 << 20, MemEntries: warmFront}

// sweepShape is how many of the pool's applications, retentions and
// policies a generated sweep takes.  Fixing the shape keeps every seed's
// operations the same size; only which cells they cover varies.
type sweepShape struct{ apps, retentions, policies int }

var (
	// hitShape: 2 x (1 x 4 + 1) = 10 cells per hit sweep.
	hitShape = sweepShape{apps: 2, retentions: 1, policies: 4}
	// cellhitShape: 2 x (2 x 4 + 1) = 18 cells per cellhit sweep.
	cellhitShape = sweepShape{apps: 2, retentions: 2, policies: 4}
)

// subsetGen draws never-seen sweeps whose cells all lie in the pool.
type subsetGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	seed     int64
	policies []string
	seen     map[string]bool
}

func newSubsetGen(seed, poolSeed int64) *subsetGen {
	g := &subsetGen{rng: rand.New(rand.NewSource(seed)), seed: poolSeed, seen: make(map[string]bool)}
	for _, p := range config.SweepPolicies() {
		g.policies = append(g.policies, p.String())
	}
	return g
}

// pick returns n distinct elements of xs, in xs's order.
func pick[T any](rng *rand.Rand, xs []T, n int) []T {
	idx := rng.Perm(len(xs))[:n]
	slices.Sort(idx)
	out := make([]T, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// markSeen records a request's sweep key as taken.
func (g *subsetGen) markSeen(req refrint.SweepRequest) error {
	opts, err := req.Options()
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.seen[opts.Key()] = true
	g.mu.Unlock()
	return nil
}

// next returns a request of the given shape for a sweep no earlier request
// of the generator (or marked one) had, together with its sweep key.
func (g *subsetGen) next(shape sweepShape, priority string) (refrint.SweepRequest, string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		req := refrint.SweepRequest{
			Apps:             pick(g.rng, warmApps, shape.apps),
			RetentionTimesUS: pick(g.rng, warmRetentions, shape.retentions),
			Policies:         pick(g.rng, g.policies, shape.policies),
			EffortScale:      warmEffort,
			Seed:             g.seed,
			Priority:         priority,
		}
		opts, err := req.Options()
		if err != nil {
			return req, "", err
		}
		if key := opts.Key(); !g.seen[key] {
			g.seen[key] = true
			return req, key, nil
		}
	}
}

// poolProblems checks a warm result against the pool's set-up figures.
func poolProblems(req refrint.SweepRequest, ex sweep.Export, pool map[cellID]runFacts) []string {
	out := presenceProblems(req, ex)
	for _, r := range ex.Runs {
		want, ok := pool[idOf(r)]
		if !ok {
			out = append(out, fmt.Sprintf("cell %v is not in the pool", idOf(r)))
		} else if got := factsOfExport(r); got != want {
			out = append(out, fmt.Sprintf("cell %v: %+v, set-up recorded %+v", idOf(r), got, want))
		}
	}
	return out
}

// warmState is a set-up service-warm instance.
type warmState struct {
	dir   string
	svc   *service
	pool  map[cellID]runFacts
	hits  []refrint.SweepRequest
	gen   *subsetGen
	stats store.Stats // store counters when the timed window reached this store
}

// setupWarm opens a fresh store and server, simulates the cell pool (one
// sweep per application, so both server workers share the work) and
// completes the hit sweeps, whose cells all come from the pool.
func setupWarm(e *env, poolSeed, genSeed int64, probe *execProbe) (_ *warmState, err error) {
	dir, err := os.MkdirTemp(e.workDir, "warm-")
	if err != nil {
		return nil, fmt.Errorf("creating store directory: %w", err)
	}
	svc, err := startService(dir, warmStore, probe)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			svc.close()
			os.RemoveAll(dir)
		}
	}()
	w := &warmState{dir: dir, svc: svc, pool: make(map[cellID]runFacts), gen: newSubsetGen(genSeed, poolSeed)}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for _, app := range warmApps {
		req := refrint.SweepRequest{Apps: []string{app}, RetentionTimesUS: warmRetentions, EffortScale: warmEffort, Seed: poolSeed}
		if err := w.gen.markSeen(req); err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := svc.call(nil, 0, "", req)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				if p := presenceProblems(req, c.export); len(p) > 0 {
					err = fmt.Errorf("pool sweep %s: %v", app, p)
				}
			}
			if err != nil {
				first = err
				return
			}
			for _, r := range c.export.Runs {
				w.pool[idOf(r)] = factsOfExport(r)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	if len(w.pool) <= warmFront {
		return nil, fmt.Errorf("cell pool of %d does not exceed the store's %d-entry memory front", len(w.pool), warmFront)
	}
	if b := svc.st.Stats().Bytes; b > warmStore.MaxBytes/2 {
		return nil, fmt.Errorf("cell pool takes %d bytes, over half the store's %d-byte budget", b, warmStore.MaxBytes)
	}
	for i := 0; i < warmHitSweeps; i++ {
		req, _, err := w.gen.next(hitShape, "interactive")
		if err != nil {
			return nil, err
		}
		c, err := svc.call(nil, 0, "", req)
		if err != nil {
			return nil, fmt.Errorf("hit sweep: %w", err)
		}
		if p := poolProblems(req, c.export, w.pool); len(p) > 0 {
			return nil, fmt.Errorf("hit sweep: %v", p)
		}
		w.hits = append(w.hits, req)
	}
	return w, nil
}

// warmOut is what the service-warm phase measured.
type warmOut struct {
	setupS    float64
	hitMS     []float64
	cellhitMS []float64
	reviveMS  []float64
	ops       int
	wallS     float64 // timed window minus the between-round maintenance
	cellHits  int64   // store cell-read hits in the timed window
	sweepHits int64   // store sweep-read hits in the timed window
	layers    *layerTimes
	probe     *execProbe
}

// planHits draws, from the seed, which hit sweep each of one client's hits
// in one round resubmits.
func planHits(seed int64, round, client int) []int {
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed)<<24 ^ uint64(round)<<4 ^ uint64(client)))))
	hits := make([]int, warmHitsPerClient)
	for i := range hits {
		hits[i] = rng.Intn(warmHitSweeps)
	}
	return hits
}

// warmSeeds derives, from the workload seed, the simulation seed of the
// cell pool and the seed of the sweep-subset generator.
func warmSeeds(seed int64) (poolSeed, genSeed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x7761726d))
	return 1 + rng.Int63n(1<<40), rng.Int63()
}

// warmPhase runs rounds of two closed-loop clients, one round per step: a
// hit step, then a cellhit step, then a revive.
type warmPhase struct {
	e     *env
	w     *warmState
	out   warmOut
	round int
	mu    sync.Mutex
}

// newWarmPhase sets up the pool and the hit sweeps.
func newWarmPhase(e *env) (*warmPhase, error) {
	poolSeed, genSeed := warmSeeds(e.seed)
	p := &warmPhase{e: e, out: warmOut{layers: &layerTimes{}, probe: &execProbe{tr: e.tr}}}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if p.w != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if p.w, err = setupWarm(e, poolSeed, genSeed, p.out.probe); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.out.setupS = median(setups)
	p.out.probe.reset()
	p.w.stats = p.w.svc.st.Stats()
	return p, nil
}

// close stops the service and removes its store.
func (p *warmPhase) close() error {
	err := p.w.svc.close()
	os.RemoveAll(p.w.dir)
	return err
}

func (p *warmPhase) record(dst *[]float64, ms float64) {
	p.mu.Lock()
	*dst = append(*dst, ms)
	p.out.ops++
	p.mu.Unlock()
}

// countStore adds the current store's hits since the window reached it.
func (p *warmPhase) countStore() {
	st := p.w.svc.st.Stats()
	p.out.cellHits += st.CellHits - p.w.stats.CellHits
	p.out.sweepHits += st.SweepHits - p.w.stats.SweepHits
}

// clients runs op on every client concurrently and waits for all of them.
func clients(op func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op(c)
		}()
	}
	wg.Wait()
}

func (p *warmPhase) step() error {
	start := time.Now()
	round := p.round
	p.round++
	clients(func(c int) {
		for i, hit := range planHits(p.e.seed, round, c) {
			if ms, ok := p.hit(fmt.Sprintf("hit-%d-%d-%d", round, c, i), hit); ok {
				p.record(&p.out.hitMS, ms)
			}
		}
	})
	clients(func(c int) {
		for i := 0; i < warmCellhitsPerClient; i++ {
			if ms, ok := p.cellhit(fmt.Sprintf("cellhit-%d-%d-%d", round, c, i)); ok {
				p.record(&p.out.cellhitMS, ms)
			}
		}
	})

	// Revive: with nothing in flight, restart the store and server on the
	// same directory and ask for a stored sweep.
	maintenance := time.Now()
	p.countStore()
	if err := p.w.svc.close(); err != nil {
		return err
	}
	idle := time.Since(maintenance)
	pick := int(splitmix(uint64(p.e.seed)<<24^uint64(round)) % warmHitSweeps)
	ms, ok, err := p.revive(fmt.Sprintf("revive-%d", round), pick)
	if err != nil {
		return err
	}
	if ok {
		p.record(&p.out.reviveMS, ms)
	}

	// Put the other hit sweeps back into the fresh server's result cache
	// (untimed), so the next round's hits are cache hits again.
	maintenance = time.Now()
	for i, req := range p.w.hits {
		if i == pick {
			continue
		}
		if _, status, err := p.w.svc.submit(req); err != nil || status != http.StatusOK {
			return fmt.Errorf("re-warming hit sweep %d: status %d: %v", i, status, err)
		}
	}
	idle += time.Since(maintenance)
	p.out.wallS += (time.Since(start) - idle).Seconds()
	return nil
}

// finish stops the service and returns what the phase measured.
func (p *warmPhase) finish() (warmOut, error) {
	p.countStore()
	return p.out, p.close()
}

// hit resubmits a completed sweep, which must be answered from the result
// cache, and fetches its results.
func (p *warmPhase) hit(op string, i int) (float64, bool) {
	e, w := p.e, p.w
	opID := e.tr.id()
	t0 := e.tr.now()
	began := time.Now()
	c, err := w.svc.call(e.tr, opID, op, w.hits[i])
	ms := float64(time.Since(began)) / 1e6
	e.tr.record(opID, 0, op, "op.hit", t0, e.tr.now())
	if err != nil {
		e.out.op([]string{err.Error()})
		return 0, false
	}
	problems := poolProblems(w.hits[i], c.export, w.pool)
	if c.status != http.StatusOK || !c.job.CacheHit {
		problems = append(problems, fmt.Sprintf("hit sweep %d answered HTTP %d, cache hit %v", i, c.status, c.job.CacheHit))
	}
	problems = append(problems, p.observeTrace(w.svc, c, opID, op)...)
	e.out.op(problems)
	return ms, true
}

// cellhit submits a never-seen sweep whose cells are all stored.
func (p *warmPhase) cellhit(op string) (float64, bool) {
	e, w := p.e, p.w
	req, key, err := w.gen.next(cellhitShape, "background")
	if err != nil {
		e.out.op([]string{err.Error()})
		return 0, false
	}
	opID := e.tr.id()
	rec := p.out.probe.expect(key, opID)
	t0 := e.tr.now()
	began := time.Now()
	c, err := w.svc.call(e.tr, opID, op, req)
	ms := float64(time.Since(began)) / 1e6
	e.tr.record(opID, 0, op, "op.cellhit", t0, e.tr.now())
	if err != nil {
		e.out.op([]string{err.Error()})
		return 0, false
	}
	problems := poolProblems(req, c.export, w.pool)
	if c.status != http.StatusAccepted {
		problems = append(problems, fmt.Sprintf("never-seen sweep answered HTTP %d", c.status))
	}
	problems = append(problems, rec.storeReadProblems(len(c.export.Runs))...)
	problems = append(problems, p.observeTrace(w.svc, c, opID, op)...)
	e.out.op(problems)
	return ms, true
}

// revive reopens the store and server on the set-up directory and fetches
// stored hit sweep i, timed from store.Open to the results body.
func (p *warmPhase) revive(op string, i int) (float64, bool, error) {
	e, w := p.e, p.w
	opID := e.tr.id()
	t0 := e.tr.now()
	began := time.Now()
	svc, err := startService(w.dir, warmStore, p.out.probe)
	if err != nil {
		return 0, false, fmt.Errorf("revive: %w", err)
	}
	w.svc = svc
	w.stats = store.Stats{} // a fresh store counts from zero
	e.tr.add(opID, op, "store.open", t0, t0+svc.openNS)
	c, err := svc.call(e.tr, opID, op, w.hits[i])
	ms := float64(time.Since(began)) / 1e6
	e.tr.record(opID, 0, op, "op.revive", t0, e.tr.now())
	if err != nil {
		e.out.op([]string{err.Error()})
		return 0, false, nil
	}
	problems := poolProblems(w.hits[i], c.export, w.pool)
	if c.status != http.StatusOK {
		problems = append(problems, fmt.Sprintf("stored sweep %d answered HTTP %d after restart", i, c.status))
	}
	problems = append(problems, p.observeTrace(svc, c, opID, op)...)
	e.out.op(problems)
	if e.tr != nil {
		p.out.layers.mu.Lock()
		p.out.layers.openMS = append(p.out.layers.openMS, float64(svc.openNS)/1e6)
		p.out.layers.mu.Unlock()
	}
	return ms, true, nil
}

// observeTrace imports a finished operation's job timeline when tracing.
func (p *warmPhase) observeTrace(svc *service, c sweepCall, opID int64, op string) []string {
	if p.e.tr == nil {
		return nil
	}
	pt, err := svc.importTrace(p.e.tr, opID, op, c.job.ID)
	if err != nil {
		return []string{err.Error()}
	}
	p.out.layers.observe(c, pt)
	return nil
}
