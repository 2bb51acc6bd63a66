// Command layerbench is refrint's layered benchmark.  It measures the
// simulator and the sweep service from outside, by timing calls into their
// public Go functions, on three closed-loop workloads:
//
//   - sim-serial: one goroutine simulates a fixed cell list back to back;
//   - service-cold: two clients submit never-seen sweeps to a fresh server;
//   - service-warm: two clients resubmit cached sweeps, submit sweeps whose
//     cells are all stored, and revive stored sweeps after a restart.
//
// Every run measures all three phases, so every end-to-end metric is in
// every result line: the named workload runs for --seconds and the other two
// for a shorter reference time, in interleaved steps.  --trace 1 records
// spans at each layer boundary, writes them under .bench_build/traces and
// reports the per-layer metrics instead.  See README.md.
//
// Usage (from the repository root):
//
//	bash layerbench/run.sh --workload sim-serial --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

var workloads = []string{"sim-serial", "service-cold", "service-warm"}

// setupRepeats is how many times each phase sets up; set-up time is the
// median.
const setupRepeats = 3

// defaultSeed is the seed the committed sim-serial digests were recorded at.
const defaultSeed = 1

// env is the context shared by the phases of one run.
type env struct {
	seed    int64
	tr      *tracer // nil when untraced
	workDir string  // scratch space for stores, removed at exit
	out     *outcome
}

// outcome counts operations and the ones whose checks failed.
type outcome struct {
	attempted, failed, logged atomic.Int64
}

// op records one operation; any problem makes it a failed one.
func (o *outcome) op(problems []string) {
	o.attempted.Add(1)
	if len(problems) == 0 {
		return
	}
	o.failed.Add(1)
	if o.logged.Add(1) <= 20 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "layerbench: FAILED:", p)
		}
	}
}

// phases holds what each phase of a run measured.
type phases struct {
	serial serialOut
	cold   coldOut
	warm   warmOut
}

// part is one phase's share of a run.
type part struct {
	name   string
	target float64 // seconds of steps to run
	spent  float64
	step   func() error
	more   func() bool // reports work that must finish past the target; nil for none
}

func (p *part) wants() bool { return p.spent < p.target || (p.more != nil && p.more()) }

// interleave repeatedly runs one step of the part furthest behind its
// target until every part is done.  Each phase's samples so spread over the
// whole run, and a slow drift in host speed reaches every phase alike.
func interleave(parts []*part) error {
	for {
		var next *part
		for _, p := range parts {
			if p.wants() && (next == nil || p.spent/p.target < next.spent/next.target) {
				next = p
			}
		}
		if next == nil {
			return nil
		}
		t0 := time.Now()
		if err := next.step(); err != nil {
			return fmt.Errorf("%s: %w", next.name, err)
		}
		next.spent += time.Since(t0).Seconds()
	}
}

// minColdSweeps is the service-cold floor when another workload is named:
// six rounds, so that sims_per_s is a median of six round rates.  A 20-sweep
// floor in every run would add about 10 s to each sim-serial and
// service-warm run, more than the time budget for a full set of runs allows.
const minColdSweeps = 12

// runPhases sets up every phase that secs gives time to, interleaves their
// steps, and tears them down.  It also runs until the revive latencies, and
// the cold sweep latencies when service-cold is the named workload, have the
// samples the percentile rule asks of a median; otherwise service-cold runs
// at least minColdSweeps sweeps.
func runPhases(e *env, workload string, secs func(string) float64) (r phases, err error) {
	var (
		parts   []*part
		serial  *serialPhase
		cold    *coldPhase
		warm    *warmPhase
		cleanup []func() error
	)
	defer func() {
		if err != nil {
			for _, c := range cleanup {
				c()
			}
		}
	}()
	if t := secs("sim-serial"); t > 0 {
		if serial, err = newSerialPhase(e); err != nil {
			return r, fmt.Errorf("sim-serial set-up: %w", err)
		}
		parts = append(parts, &part{name: "sim-serial", target: t, step: serial.step, more: serial.more})
	}
	if t := secs("service-cold"); t > 0 {
		if cold, err = newColdPhase(e); err != nil {
			return r, fmt.Errorf("service-cold set-up: %w", err)
		}
		cleanup = append(cleanup, cold.close)
		floor := minColdSweeps
		if workload == "service-cold" {
			floor = 2 * tailSamples
		}
		parts = append(parts, &part{name: "service-cold", target: t, step: cold.step,
			more: func() bool { return len(cold.out.sweepS) < floor }})
	}
	if t := secs("service-warm"); t > 0 {
		if warm, err = newWarmPhase(e); err != nil {
			return r, fmt.Errorf("service-warm set-up: %w", err)
		}
		cleanup = append(cleanup, warm.close)
		parts = append(parts, &part{name: "service-warm", target: t, step: warm.step,
			more: func() bool { return len(warm.out.reviveMS) < 2*tailSamples }})
	}
	if err = interleave(parts); err != nil {
		return r, err
	}
	cleanup = nil
	if serial != nil {
		r.serial = serial.finish()
		fmt.Fprintf(os.Stderr, "layerbench: sim-serial: set-up %.3f s, %d passes of %d cells\n",
			r.serial.setupS, len(r.serial.passes), r.serial.cellCount)
	}
	if cold != nil {
		if r.cold, err = cold.finish(); err != nil {
			return r, fmt.Errorf("service-cold: %w", err)
		}
		fmt.Fprintf(os.Stderr, "layerbench: service-cold: set-up %.3f s, %d sweeps in %.1f s\n",
			r.cold.setupS, len(r.cold.sweepS), r.cold.wallS)
	}
	if warm != nil {
		if r.warm, err = warm.finish(); err != nil {
			return r, fmt.Errorf("service-warm: %w", err)
		}
		fmt.Fprintf(os.Stderr, "layerbench: service-warm: set-up %.3f s, %d operations in %.1f s\n",
			r.warm.setupS, r.warm.ops, r.warm.wallS)
	}
	return r, nil
}

// primaryFigure is the end-to-end figure a workload is chiefly about,
// against which the tracing overhead is reported.
func primaryFigure(workload string, r phases) float64 {
	switch workload {
	case "sim-serial":
		return r.serial.nsPerAccess()
	case "service-cold":
		return median(r.cold.sweepS)
	default:
		return median(r.warm.hitMS)
	}
}

// endToEnd fills m with the gated end-to-end metrics.  The service-warm
// hit tail, cellhit latencies and throughput are only printed here: on the
// 2-CPU host the benchmark is sized for, their spread over ten runs can
// exceed any bound the benchmark may set (shared-disk fsync latency and CPU
// contention), so the traced run reports them, ungated.
func endToEnd(m metricSet, r phases) {
	m.set("setup_s", "s", r.serial.setupS+r.cold.setupS+r.warm.setupS)
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("ns_per_access", "ns", r.serial.nsPerAccess())
	m.set("sims_per_s", "1/s", median(r.cold.rates))
	m.set("sweep_s_p50", "s", median(r.cold.sweepS))
	m.set("hit_ms_p50", "ms", median(r.warm.hitMS))
	m.set("revive_ms_p50", "ms", median(r.warm.reviveMS))
	tails := metricSet{}
	warmTails(tails, r.warm)
	for _, name := range []string{"hit_ms_p99", "cellhit_ms_p50", "cellhit_ms_p90", "warm_ops_per_s"} {
		fmt.Fprintf(os.Stderr, "layerbench: %s = %.4g %s (ungated)\n", name, tails[name].Value, tails[name].Unit)
	}
	for _, n := range []struct {
		name string
		n    int
		p    float64
	}{
		{"sweep_s", len(r.cold.sweepS), 50},
		{"hit_ms", len(r.warm.hitMS), 99},
		{"cellhit_ms", len(r.warm.cellhitMS), 90},
		{"revive_ms", len(r.warm.reviveMS), 50},
	} {
		fmt.Fprintln(os.Stderr, "layerbench:", percentileNote(n.name, n.n, n.p))
	}
}

// warmTails sets the ungated service-warm figures.
func warmTails(m metricSet, w warmOut) {
	m.set("hit_ms_p99", "ms", quantile(w.hitMS, 0.99))
	m.set("cellhit_ms_p50", "ms", median(w.cellhitMS))
	m.set("cellhit_ms_p90", "ms", quantile(w.cellhitMS, 0.90))
	m.set("warm_ops_per_s", "1/s", float64(w.ops)/w.wallS)
}

func perLayer(m metricSet, r phases, costs replayCosts) {
	warm, cold, serial := r.warm, r.cold, r.serial
	warmTails(m, warm)
	m.set("server.submit_ms_p50", "ms", median(warm.layers.submitMS))
	m.set("server.results_ms_p50", "ms", median(warm.layers.resultsMS))
	m.set("server.results_kb_p50", "KB", median(warm.layers.resultsKB))
	m.set("server.admit_ms_p50", "ms", median(warm.layers.admitMS))
	m.set("sched.wait_ms_p50", "ms", median(cold.layers.waitMS))
	m.set("sweep.exec_ms_p50", "ms", median(cold.probe.execMS))
	m.set("sweep.overhead_ms_p50", "ms", median(cold.probe.overMS))
	m.set("sweep.busy_frac", "fraction", median(cold.probe.busy))
	m.set("sweep.cell_hit_ratio", "ratio", ratio(warm.probe.hits, warm.probe.lookups))
	m.set("store.get_us_p50", "us", median(warm.probe.getUS))
	m.set("store.get_us_p90", "us", quantile(warm.probe.getUS, 0.90))
	m.set("store.put_ms_p50", "ms", median(cold.probe.putMS))
	m.set("store.put_ms_p90", "ms", quantile(cold.probe.putMS, 0.90))
	m.set("store.persist_ms_p50", "ms", median(cold.layers.persistMS))
	m.set("store.open_ms_p50", "ms", median(warm.layers.openMS))
	m.set("store.cell_hits", "count", float64(warm.cellHits))
	m.set("store.sweep_hits", "count", float64(warm.sweepHits))

	m.set("sim.new_ms_p50", "ms", median(serial.newMS))
	for _, class := range []string{"sram", "periodic", "refrint"} {
		m.set("sim.run_ns_per_access."+class, "ns", serial.runNSPerAccess(class))
	}
	m.set("sim.allocs_per_run", "count", serial.allocs)
	m.set("sim.kb_per_run", "KB", serial.kb)
	m.set("sim.cell_ms_p50", "ms", median(cold.probe.cellMS))
	var gaps []float64
	for _, p := range serial.passes {
		gaps = append(gaps, 1-attributedNS(p.work, costs)/float64(p.runNS))
	}
	m.set("sim.unattributed_frac", "fraction", median(gaps))

	m.set("workload.next_ns", "ns", costs.nextNS)
	m.set("cache.probe_ns", "ns", costs.probeNS)
	m.set("cache.victim_insert_ns", "ns", costs.insertNS)
	m.set("event.wheel_op_ns", "ns", costs.wheelNS)
	m.set("core.advance_ns_per_refresh", "ns", costs.advanceNS)
	m.set("coherence.op_ns", "ns", costs.coherenceNS)

	// Modelled work of one pass over the sim-serial cell list.
	w := serial.passes[0].work
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"workload.draws", w.draws}, {"cache.lookups", w.lookups}, {"core.refreshes", w.refreshes},
		{"core.sentry_interrupts", w.sentryIRQs}, {"core.group_scans", w.groupScans},
		{"coherence.invalidations", w.invalidations}, {"noc.messages", w.nocMessages},
		{"dram.accesses", w.dram},
	} {
		m.set(c.name, "count", float64(c.v))
	}
	m.set("sim.cycles", "cycles", float64(w.cycles))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := flag.Int64("seed", defaultSeed, "workload seed; inputs are generated from it")
	seconds := flag.Float64("seconds", 12, "measured seconds of the named workload")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	digestsOut := flag.String("write-digests", "", "record the sim-serial digests at --seed to this file and exit")
	flag.Parse()

	if *digestsOut != "" {
		if err := writeDigests(*digestsOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloads)
		return 2
	}

	workDir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	e := &env{seed: *seed, workDir: workDir, out: &outcome{}}
	refSeconds := max(5, *seconds*3/10)
	secs := func(name string) float64 {
		if name == *workload {
			return *seconds
		}
		return refSeconds
	}

	m := metricSet{}
	if *traced == 0 {
		r, err := runPhases(e, *workload, secs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			return 1
		}
		endToEnd(m, r)
	} else {
		if err := tracedRun(e, *workload, secs, m); err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			return 1
		}
	}

	res := result{Attempted: e.out.attempted.Load(), Failed: e.out.failed.Load(), Metrics: m}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(os.Stderr, "layerbench: %d operations, %d failed\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// tracedRun runs every phase untraced, replays the component streams, then
// runs every phase again with spans on, for the same times and in the same
// interleaving, and fills m with the per-layer metrics.  The untraced run is
// the base of trace.overhead_frac.
func tracedRun(e *env, workload string, secs func(string) float64, m metricSet) error {
	base, err := runPhases(e, workload, secs)
	if err != nil {
		return err
	}

	streams, err := recordStreams(e.seed)
	if err != nil {
		return err
	}
	costs, err := measureReplay(streams, e.seed)
	if err != nil {
		return err
	}

	e.tr = newTracer()
	gc0, cpu0 := gcCPU()
	r, err := runPhases(e, workload, secs)
	if err != nil {
		return err
	}
	gc1, cpu1 := gcCPU()
	perLayer(m, r, costs)
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m.set("runtime.gc_cpu_frac", "fraction", gcFrac)
	untraced := primaryFigure(workload, base)
	if untraced <= 0 {
		return fmt.Errorf("the untraced %s run measured nothing", workload)
	}
	m.set("trace.overhead_frac", "fraction", primaryFigure(workload, r)/untraced-1)

	path, err := writeTrace(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d", workload, e.seed), e.tr.snapshot())
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "layerbench: spans written to", path)
	return nil
}
