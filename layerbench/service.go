package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refrint"
	"refrint/internal/server"
	"refrint/internal/sim"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// service is one running instance of the sweep service: a store, the server
// on top of it, and an HTTP listener on localhost in front of the server.
type service struct {
	st     *store.Store
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	openNS int64 // how long store.Open took
}

// startService opens the store in dir and starts a server with
// refrint-serve's defaults on top of it, executing sweeps through probe.
func startService(dir string, sopt store.Options, probe *execProbe) (*service, error) {
	t0 := time.Now()
	st, err := store.Open(dir, sopt)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	openNS := int64(time.Since(t0))
	srv := server.New(server.Config{Store: st, Execute: probe.execute})
	return &service{
		st:     st,
		srv:    srv,
		ts:     httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		openNS: openNS,
	}, nil
}

// close stops the listener, the server and the store, in that order.
func (s *service) close() error {
	s.ts.Close()
	s.client.CloseIdleConnections()
	s.srv.Close()
	if err := s.st.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	return nil
}

// jobView is the part of a job view the benchmark reads.
type jobView struct {
	ID       string `json:"id"`
	CacheHit bool   `json:"cache_hit"`
}

func (s *service) submit(req refrint.SweepRequest) (jobView, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobView{}, 0, fmt.Errorf("encoding request: %w", err)
	}
	resp, err := s.client.Post(s.ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobView{}, 0, fmt.Errorf("submitting: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, resp.StatusCode, fmt.Errorf("reading submit response: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return jobView{}, resp.StatusCode, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return jobView{}, resp.StatusCode, fmt.Errorf("decoding job view: %w", err)
	}
	return v, resp.StatusCode, nil
}

// awaitDone follows the job's event stream until its terminal event and
// fails unless the job completed.
func (s *service) awaitDone(id string) error {
	resp, err := s.client.Get(s.ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return fmt.Errorf("subscribing to %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event:")
		if !ok {
			continue
		}
		switch name = strings.TrimSpace(name); name {
		case "done":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("job %s ended %s", id, name)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading events of %s: %w", id, err)
	}
	return fmt.Errorf("event stream of %s ended without a terminal event", id)
}

// results fetches and decodes a completed job's results, returning the body
// size in bytes too.
func (s *service) results(id string) (sweep.Export, int, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		return sweep.Export{}, 0, fmt.Errorf("fetching results of %s: %w", id, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return sweep.Export{}, 0, fmt.Errorf("reading results of %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return sweep.Export{}, len(raw), fmt.Errorf("results of %s: HTTP %d", id, resp.StatusCode)
	}
	var ex sweep.Export
	if err := json.Unmarshal(raw, &ex); err != nil {
		return sweep.Export{}, len(raw), fmt.Errorf("decoding results of %s: %w", id, err)
	}
	return ex, len(raw), nil
}

func (s *service) jobTrace(id string) (server.TraceView, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/sweeps/" + id + "/trace")
	if err != nil {
		return server.TraceView{}, fmt.Errorf("fetching trace of %s: %w", id, err)
	}
	defer resp.Body.Close()
	var tv server.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		return server.TraceView{}, fmt.Errorf("decoding trace of %s: %w", id, err)
	}
	return tv, nil
}

// sweepCall is the outcome of one client round trip: submit, wait for the
// terminal state when the submission was not answered from cache, fetch the
// results.
type sweepCall struct {
	job      jobView
	status   int
	export   sweep.Export
	bodySize int
	submitNS int64
	resultNS int64
}

// call performs one round trip.  With tracing on, its HTTP calls are
// recorded as children of the operation span opID.
func (s *service) call(tr *tracer, opID int64, op string, req refrint.SweepRequest) (sweepCall, error) {
	var c sweepCall
	t0 := tr.now()
	start := time.Now()
	job, status, err := s.submit(req)
	c.submitNS = int64(time.Since(start))
	t1 := tr.now()
	tr.add(opID, op, "http.submit", t0, t1)
	if err != nil {
		return c, err
	}
	c.job, c.status = job, status
	if status == http.StatusAccepted {
		if err := s.awaitDone(job.ID); err != nil {
			return c, err
		}
	}
	t2 := tr.now()
	tr.add(opID, op, "http.wait", t1, t2)
	start = time.Now()
	c.export, c.bodySize, err = s.results(job.ID)
	c.resultNS = int64(time.Since(start))
	tr.add(opID, op, "http.results", t2, tr.now())
	return c, err
}

// phaseTimes are the server-side lifecycle durations of one job, read from
// its /trace timeline.
type phaseTimes struct {
	admitNS   int64 // received -> queued, cache-hit or revived
	waitNS    int64 // queued + dequeued
	persistNS int64 // persisting
	persisted bool
	queued    bool
}

// importTrace fetches a finished job's timeline, records each phase as a
// child span of the operation, and returns the phase durations.
func (s *service) importTrace(tr *tracer, opID int64, op, jobID string) (phaseTimes, error) {
	tv, err := s.jobTrace(jobID)
	if err != nil {
		return phaseTimes{}, err
	}
	var pt phaseTimes
	var received time.Time
	admitted := false
	for _, sp := range tv.Spans {
		start := tr.at(sp.At)
		dur := int64(sp.Seconds * 1e9)
		tr.add(opID, op, "server."+sp.Phase, start, start+dur)
		switch sp.Phase {
		case "received":
			received = sp.At
		case "queued", "cache-hit", "revived":
			if !admitted && !received.IsZero() {
				pt.admitNS = sp.At.Sub(received).Nanoseconds()
				admitted = true
			}
		case "persisting":
			pt.persistNS += dur
			pt.persisted = true
		}
		if sp.Phase == "queued" || sp.Phase == "dequeued" {
			pt.waitNS += dur
			pt.queued = true
		}
	}
	return pt, nil
}

// execProbe is the server's Execute hook: it runs sweep.ExecuteContext and,
// for a sweep an operation registered with expect, counts the store's cell
// lookups and hits, traced or not.  When tracing, it also wraps the store's
// cell hooks the server installed so every cell lookup and put is timed, and
// records the execution as a span under the client operation that submitted
// the sweep.
type execProbe struct {
	tr  *tracer
	ops sync.Map // sweep key -> *execRecord

	mu      sync.Mutex
	lookups int64
	hits    int64
	execMS  []float64
	overMS  []float64
	busy    []float64
	getUS   []float64
	putMS   []float64
	cellMS  []float64
}

// execRecord is what the execution of one registered sweep saw of the
// store's cell hooks.
type execRecord struct {
	opID          int64 // operation span the execution belongs to
	lookups, hits atomic.Int64
}

// expect registers the operation that a sweep key's execution belongs to.
// The returned record counts that execution's cell lookups and hits.
func (p *execProbe) expect(key string, opID int64) *execRecord {
	r := &execRecord{opID: opID}
	p.ops.Store(key, r)
	return r
}

// storeReadProblems reports a sweep of n cells whose execution did not read
// every cell from the store.
func (r *execRecord) storeReadProblems(n int) []string {
	lookups, hits := r.lookups.Load(), r.hits.Load()
	if lookups == int64(n) && hits == lookups {
		return nil
	}
	return []string{fmt.Sprintf("%d of %d cells were store hits (%d lookups); the rest were simulated", hits, n, lookups)}
}

// reset drops the samples collected so far (those of set-up sweeps).
func (p *execProbe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lookups, p.hits = 0, 0
	p.execMS, p.overMS, p.busy = nil, nil, nil
	p.getUS, p.putMS, p.cellMS = nil, nil, nil
}

func (p *execProbe) execute(ctx context.Context, opts sweep.Options, progress func(sweep.Progress)) (*refrint.SweepResults, error) {
	key := opts.Key()
	var parent int64
	if v, ok := p.ops.LoadAndDelete(key); ok {
		rec := v.(*execRecord)
		parent = rec.opID
		if lookup := opts.CellLookup; lookup != nil {
			opts.CellLookup = func(k sweep.CellKey) (sim.Result, bool) {
				res, ok := lookup(k)
				rec.lookups.Add(1)
				if ok {
					rec.hits.Add(1)
				}
				return res, ok
			}
		}
	}
	if p.tr == nil {
		return sweep.ExecuteContext(ctx, opts, progress)
	}
	execID := p.tr.id()

	// A cell span runs from its store lookup to the end of its store put (a
	// stored cell's span is its lookup alone); its children are the lookup,
	// the simulation between the two hooks, and the put.
	type pendingCell struct{ id, start, found int64 }
	var (
		mu      sync.Mutex
		pending = make(map[sweep.CellKey]pendingCell)
		cells   []span
		getUS   []float64
		putMS   []float64
		simMS   []float64
		hits    int64
	)
	if lookup := opts.CellLookup; lookup != nil {
		opts.CellLookup = func(k sweep.CellKey) (sim.Result, bool) {
			cellID := p.tr.id()
			t0 := p.tr.now()
			res, ok := lookup(k)
			t1 := p.tr.now()
			p.tr.add(cellID, key, "store.get", t0, t1)
			mu.Lock()
			getUS = append(getUS, float64(t1-t0)/1e3)
			if ok {
				hits++
				p.tr.record(cellID, execID, key, "sweep.cell", t0, t1)
				cells = append(cells, span{Start: t0, End: t1})
			} else {
				pending[k] = pendingCell{id: cellID, start: t0, found: t1}
			}
			mu.Unlock()
			return res, ok
		}
	}
	if put := opts.CellPut; put != nil {
		opts.CellPut = func(k sweep.CellKey, res sim.Result) {
			t2 := p.tr.now()
			put(k, res)
			t3 := p.tr.now()
			mu.Lock()
			defer mu.Unlock()
			putMS = append(putMS, float64(t3-t2)/1e6)
			pc, ok := pending[k]
			if !ok {
				return
			}
			delete(pending, k)
			p.tr.record(pc.id, execID, key, "sweep.cell", pc.start, t3)
			p.tr.add(pc.id, key, "sim.cell", pc.found, t2)
			p.tr.add(pc.id, key, "store.put", t2, t3)
			cells = append(cells, span{Start: pc.start, End: t3})
			simMS = append(simMS, float64(t2-pc.found)/1e6)
		}
	}

	start := p.tr.now()
	res, err := sweep.ExecuteContext(ctx, opts, progress)
	end := p.tr.now()
	p.tr.record(execID, parent, key, "sweep.exec", start, end)

	mu.Lock()
	defer mu.Unlock()
	wall := end - start
	var cellSum int64
	for _, c := range cells {
		cellSum += c.dur()
	}
	exec := span{Start: start, End: end}
	workers := max(opts.Workers, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lookups += int64(len(getUS))
	p.hits += hits
	p.execMS = append(p.execMS, float64(wall)/1e6)
	p.overMS = append(p.overMS, float64(wall-covered(exec, cells))/1e6)
	if wall > 0 {
		p.busy = append(p.busy, float64(cellSum)/float64(wall*int64(workers)))
	}
	p.getUS = append(p.getUS, getUS...)
	p.putMS = append(p.putMS, putMS...)
	p.cellMS = append(p.cellMS, simMS...)
	return res, err
}

// layerTimes collects the client-side and trace-derived per-layer samples of
// a service phase.
type layerTimes struct {
	mu        sync.Mutex
	submitMS  []float64
	resultsMS []float64
	resultsKB []float64
	admitMS   []float64
	waitMS    []float64
	persistMS []float64
	openMS    []float64 // store.Open of revives
}

func (l *layerTimes) observe(c sweepCall, pt phaseTimes) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitMS = append(l.submitMS, float64(c.submitNS)/1e6)
	l.resultsMS = append(l.resultsMS, float64(c.resultNS)/1e6)
	l.resultsKB = append(l.resultsKB, float64(c.bodySize)/1024)
	l.admitMS = append(l.admitMS, float64(pt.admitNS)/1e6)
	if pt.queued {
		l.waitMS = append(l.waitMS, float64(pt.waitNS)/1e6)
	}
	if pt.persisted {
		l.persistMS = append(l.persistMS, float64(pt.persistNS)/1e6)
	}
}
