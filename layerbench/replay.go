package main

import (
	"fmt"
	"time"

	"refrint/internal/cache"
	"refrint/internal/coherence"
	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/event"
	"refrint/internal/mem"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// Component replay: each sim-serial application's own reference stream,
// recorded from workload.Generator, is replayed through the public
// functions of the component packages in batches, so one timer read covers
// many nanosecond-scale calls.

const (
	replayAccesses = 200_000 // recorded references per application
	replayRepeats  = 3       // each cost is the median of this many batches
)

// appStream is one application's recorded reference stream, interleaved
// round-robin across its threads as the run loop would roughly issue it.
type appStream struct {
	params   workload.Params
	cfg      config.Config
	accesses []mem.Access
}

// replayConfig is the configuration the replay models: the scaled preset
// running policy p at the sim-serial retention time.
func replayConfig(p config.Policy) config.Config {
	return config.AsEDRAM(config.Scaled(), p, config.ScaledRetentionUS(serialRetentionUS))
}

func recordStreams(seed int64) ([]appStream, error) {
	cfg := replayConfig(config.Policy{Time: config.RefrintTime, Data: config.ValidData})
	var out []appStream
	for _, name := range serialApps {
		p, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		params := workload.ForConfig(p, cfg)
		app := workload.NewApp(params, cfg, seed)
		s := appStream{params: params, cfg: cfg, accesses: make([]mem.Access, 0, replayAccesses)}
		for len(s.accesses) < replayAccesses && !app.Done() {
			for t := 0; t < app.Threads() && len(s.accesses) < replayAccesses; t++ {
				if a, ok := app.Thread(t).Next(); ok {
					s.accesses = append(s.accesses, a)
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// replayCosts are host nanoseconds per component operation.
type replayCosts struct {
	nextNS      float64 // workload: one Generator.Next
	probeNS     float64 // cache: one Probe
	insertNS    float64 // cache: one Insert on a miss (victim choice included)
	wheelNS     float64 // event: one FrameWheel Schedule or popped deadline
	advanceNS   float64 // core: Bank.AdvanceTo per line refreshed
	coherenceNS float64 // coherence: one Directory Read or Write
}

// measureReplay times every component over the recorded streams.
func measureReplay(streams []appStream, seed int64) (replayCosts, error) {
	var c replayCosts
	var probe, insert, advance []float64
	for i := 0; i < replayRepeats; i++ {
		p, in := cacheCosts(streams)
		a, err := advanceCost()
		if err != nil {
			return c, err
		}
		probe, insert, advance = append(probe, p), append(insert, in), append(advance, a)
	}
	c.probeNS, c.insertNS, c.advanceNS = median(probe), median(insert), median(advance)
	c.nextNS = medianOf(func() float64 { return generatorCost(streams, seed) })
	c.wheelNS = medianOf(func() float64 { return wheelCost(streams) })
	c.coherenceNS = medianOf(func() float64 { return coherenceCost(streams) })
	return c, nil
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, replayRepeats)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// generatorCost drains a fresh thread-0 generator of each application.
func generatorCost(streams []appStream, seed int64) float64 {
	var draws int64
	var elapsed time.Duration
	for _, s := range streams {
		g := workload.NewGenerator(s.params, s.cfg, 0, seed)
		t0 := time.Now()
		for n := 0; n < replayAccesses; n++ {
			if _, ok := g.Next(); !ok {
				break
			}
			draws++
		}
		elapsed += time.Since(t0)
	}
	return float64(elapsed) / float64(draws)
}

// sink keeps the probe-only loop's result live, so the compiler cannot drop
// the loop.
var sink int

// cacheCosts replays each stream's lines through an L2-geometry cache:
// first probing and inserting on every miss, then probing only, against the
// final contents.  The probe-only pass gives the probe cost; the remainder
// of the first pass, per miss, the insert cost.
func cacheCosts(streams []appStream) (probeNS, insertNS float64) {
	var refs, misses int64
	var full, probeOnly time.Duration
	for _, s := range streams {
		geom := s.cfg.Geometry()
		c := cache.New(s.cfg.L2)
		t0 := time.Now()
		for i, a := range s.accesses {
			line := geom.LineOf(a.Addr)
			if _, ok := c.Probe(line); !ok {
				c.Insert(line, mem.Exclusive, int64(i))
				misses++
			}
		}
		full += time.Since(t0)
		hits := 0
		t0 = time.Now()
		for _, a := range s.accesses {
			if _, ok := c.Probe(geom.LineOf(a.Addr)); ok {
				hits++
			}
		}
		probeOnly += time.Since(t0)
		sink += hits
		refs += int64(len(s.accesses))
	}
	probeNS = float64(probeOnly) / float64(refs)
	if misses > 0 {
		insertNS = float64(full-probeOnly) / float64(misses)
	}
	return probeNS, insertNS
}

// wheelCost schedules a sentry-style deadline (one sentry period ahead) for
// every reference's L3-bank frame, as a touch on a Refrint bank does, and
// drains due deadlines every 32 references.
func wheelCost(streams []appStream) float64 {
	var ops int64
	var elapsed time.Duration
	buf := make([]event.WheelEntry, 0, 4096)
	for _, s := range streams {
		frames := s.cfg.L3.LinesPerBank()
		period := s.cfg.Cell.SentryRetention()
		w := event.NewFrameWheel(64, frames, period)
		geom := s.cfg.Geometry()
		var now int64
		t0 := time.Now()
		for i, a := range s.accesses {
			now += a.Gap + 1
			w.Schedule(now+period, int(uint64(geom.LineOf(a.Addr))%uint64(frames)))
			ops++
			if i%32 == 31 {
				buf = w.PopDueInto(now, -1, buf[:0])
				ops += int64(len(buf))
			}
		}
		elapsed += time.Since(t0)
	}
	return float64(elapsed) / float64(ops)
}

// advanceCost advances half-full L3 banks running P.all and R.valid across
// many retention periods and charges the time to the lines refreshed.
func advanceCost() (float64, error) {
	var elapsed time.Duration
	var refreshes int64
	for _, p := range []config.Policy{
		{Time: config.PeriodicTime, Data: config.AllData},
		{Time: config.RefrintTime, Data: config.ValidData},
	} {
		cfg := replayConfig(p)
		st := stats.New(1)
		bank := core.NewBank(cfg.L3, cfg.Cell, p, stats.L3, st, core.Hooks{})
		for i := 0; i < bank.Cache().NumLines(); i += 2 {
			bank.Insert(mem.LineAddr(i), mem.Exclusive, 0)
		}
		step := cfg.Cell.RetentionCycles / 4
		var now int64
		t0 := time.Now()
		for k := 0; k < 400; k++ {
			now += step
			bank.AdvanceTo(now)
		}
		elapsed += time.Since(t0)
		refreshes += st.Level(stats.L3).Refreshes
	}
	if refreshes == 0 {
		return 0, fmt.Errorf("replay: banks performed no refreshes")
	}
	return float64(elapsed) / float64(refreshes), nil
}

// coherenceCost replays the shared-region references through a directory.
func coherenceCost(streams []appStream) float64 {
	var ops int64
	var elapsed time.Duration
	for _, s := range streams {
		d := coherence.New(s.cfg.Cores)
		geom := s.cfg.Geometry()
		t0 := time.Now()
		for _, a := range s.accesses {
			if !a.Shared {
				continue
			}
			line := geom.LineOf(a.Addr)
			if a.Type.IsWrite() {
				d.Write(line, a.Core)
			} else {
				d.Read(line, a.Core)
			}
			ops++
		}
		elapsed += time.Since(t0)
	}
	if ops == 0 {
		return 0
	}
	return float64(elapsed) / float64(ops)
}

// attributedNS is the host time the modelled work of a pass should cost at
// the replayed component prices.  Wheel operations are counted as one per
// lookup in a Refrint cell (each touch reschedules the frame's sentry
// deadline) plus one per sentry interrupt; directory operations as one per
// L3 lookup.
func attributedNS(w workCounts, c replayCosts) float64 {
	return float64(w.draws)*c.nextNS +
		float64(w.lookups)*c.probeNS +
		float64(w.fills)*c.insertNS +
		float64(w.refrintLookups+w.sentryIRQs)*c.wheelNS +
		float64(w.refreshes)*c.advanceNS +
		float64(w.l3Lookups)*c.coherenceNS
}
