package sweep

import (
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// This file turns raw sweep results into the data series behind the paper's
// evaluation figures.  All values are normalized per-application to that
// application's full-SRAM baseline and then averaged over the selected
// application set, which is how the paper reports every figure.

// LevelEnergyBar is one bar of Figure 6.1: memory-hierarchy energy split by
// level, normalized to the full-SRAM memory-hierarchy energy.
type LevelEnergyBar struct {
	Point Point
	L1    float64 // IL1 + DL1
	L2    float64
	L3    float64
	DRAM  float64
}

// Total returns the bar height.
func (b LevelEnergyBar) Total() float64 { return b.L1 + b.L2 + b.L3 + b.DRAM }

// ComponentEnergyBar is one bar of Figure 6.2: on-chip dynamic, leakage and
// refresh energy plus DRAM energy, normalized to the full-SRAM
// memory-hierarchy energy.
type ComponentEnergyBar struct {
	Point   Point
	Dynamic float64
	Leakage float64
	Refresh float64
	DRAM    float64
}

// Total returns the bar height.
func (b ComponentEnergyBar) Total() float64 { return b.Dynamic + b.Leakage + b.Refresh + b.DRAM }

// ScalarBar is one bar of Figures 6.3 (total energy) and 6.4 (execution
// time): a single normalized value.
type ScalarBar struct {
	Point Point
	Value float64
}

// appsFor resolves a series selector to application names.
func (r *Results) appsFor(selector string) []string {
	switch selector {
	case "all", "":
		return r.Options.Apps
	case "class1":
		return r.AppsByClass()[workload.Class1]
	case "class2":
		return r.AppsByClass()[workload.Class2]
	case "class3":
		return r.AppsByClass()[workload.Class3]
	default:
		return nil
	}
}

// averageOver computes the mean of metric(run)/metric(baseline of same app)
// over the given applications at one sweep point.
func (r *Results) averageOver(apps []string, pt Point, metric func(sim.Result) float64) float64 {
	if len(apps) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, app := range apps {
		run, ok := r.Lookup(app, pt)
		if !ok {
			continue
		}
		base, ok := r.Baselines[app]
		if !ok {
			continue
		}
		denom := metric(base.Result)
		if denom == 0 {
			continue
		}
		sum += metric(run.Result) / denom
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// averageRatioOver is like averageOver but lets the numerator and the
// denominator use different metrics (e.g. refresh energy over baseline
// memory energy, as Figure 6.2 stacks components of the normalized total).
func (r *Results) averageRatioOver(apps []string, pt Point, num, denom func(sim.Result) float64) float64 {
	if len(apps) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, app := range apps {
		run, ok := r.Lookup(app, pt)
		if !ok {
			continue
		}
		base, ok := r.Baselines[app]
		if !ok {
			continue
		}
		d := denom(base.Result)
		if d == 0 {
			continue
		}
		sum += num(run.Result) / d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// memoryEnergy is the paper's "memory hierarchy energy" (L1+L2+L3+DRAM).
func memoryEnergy(res sim.Result) float64 { return res.Energy.MemoryHierarchy() }

// Figure61 returns the bars of Figure 6.1 (L1/L2/L3/DRAM energy, averaged
// over all applications in the sweep), one per point, ordered by retention
// time then policy.
func (r *Results) Figure61() []LevelEnergyBar {
	apps := r.Options.Apps
	var bars []LevelEnergyBar
	for _, pt := range r.Points {
		bars = append(bars, LevelEnergyBar{
			Point: pt,
			L1: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.IL1 + res.Energy.DL1 }, memoryEnergy),
			L2: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.L2 }, memoryEnergy),
			L3: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.L3 }, memoryEnergy),
			DRAM: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.DRAM }, memoryEnergy),
		})
	}
	return bars
}

// Figure62 returns the bars of Figure 6.2 for one series ("class1",
// "class2", "class3" or "all"): on-chip dynamic, leakage, refresh and DRAM
// energy normalized to the full-SRAM memory energy of the same applications.
func (r *Results) Figure62(selector string) []ComponentEnergyBar {
	apps := r.appsFor(selector)
	var bars []ComponentEnergyBar
	for _, pt := range r.Points {
		bars = append(bars, ComponentEnergyBar{
			Point: pt,
			Dynamic: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.Dynamic }, memoryEnergy),
			Leakage: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.Leakage }, memoryEnergy),
			Refresh: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.Refresh }, memoryEnergy),
			DRAM: r.averageRatioOver(apps, pt,
				func(res sim.Result) float64 { return res.Energy.DRAM }, memoryEnergy),
		})
	}
	return bars
}

// Figure63 returns the bars of Figure 6.3 for one series: total system
// energy (cores + caches + network + DRAM) normalized to the full-SRAM
// system energy.
func (r *Results) Figure63(selector string) []ScalarBar {
	apps := r.appsFor(selector)
	var bars []ScalarBar
	for _, pt := range r.Points {
		bars = append(bars, ScalarBar{
			Point: pt,
			Value: r.averageOver(apps, pt, func(res sim.Result) float64 { return res.Energy.Total() }),
		})
	}
	return bars
}

// Figure64 returns the bars of Figure 6.4 for one series: execution time
// normalized to the full-SRAM execution time.
func (r *Results) Figure64(selector string) []ScalarBar {
	apps := r.appsFor(selector)
	var bars []ScalarBar
	for _, pt := range r.Points {
		bars = append(bars, ScalarBar{
			Point: pt,
			Value: r.averageOver(apps, pt, func(res sim.Result) float64 { return float64(res.Cycles) }),
		})
	}
	return bars
}

// Table61Row is one row of Table 6.1 (application binning), augmented with
// the measured characteristics that justify the bin.
type Table61Row struct {
	App            string
	Class          workload.Class
	FootprintRatio float64 // footprint / LLC capacity
	Visibility     float64
	L3MissRate     float64 // measured on the SRAM baseline
	L2Writebacks   int64   // measured on the SRAM baseline (visibility proxy)
	DRAMAccesses   int64   // measured on the SRAM baseline (footprint proxy)
}

// Table61 reproduces the application binning of Table 6.1, using the
// parameters' classification plus measured baseline statistics.
func (r *Results) Table61() []Table61Row {
	var rows []Table61Row
	for _, app := range r.Options.Apps {
		p, err := workload.Get(app)
		if err != nil {
			continue
		}
		// Compare the footprint the simulations actually used against the
		// LLC they actually ran on (the Scaled preset shrinks both).
		scaled := workload.ForConfig(p, r.Options.Base)
		row := Table61Row{
			App:            app,
			Class:          p.PaperClass,
			FootprintRatio: scaled.FootprintRatio(r.Options.Base),
			Visibility:     scaled.Visibility(r.Options.Base),
		}
		if base, ok := r.Baselines[app]; ok {
			row.L3MissRate = base.Result.Stats.Level(stats.L3).MissRate()
			row.L2Writebacks = base.Result.Stats.Level(stats.L2).Writebacks
			row.DRAMAccesses = base.Result.Stats.DRAMAccesses()
		}
		rows = append(rows, row)
	}
	return rows
}

// Find returns the bar for a given policy label and retention time from a
// ScalarBar series (helper for tests, reports and the headline-claims
// check).
func FindScalar(bars []ScalarBar, label string, retentionUS float64) (ScalarBar, bool) {
	for _, b := range bars {
		if b.Point.Label() == label && b.Point.RetentionUS == retentionUS {
			return b, true
		}
	}
	return ScalarBar{}, false
}

// FindComponent is FindScalar for ComponentEnergyBar series.
func FindComponent(bars []ComponentEnergyBar, label string, retentionUS float64) (ComponentEnergyBar, bool) {
	for _, b := range bars {
		if b.Point.Label() == label && b.Point.RetentionUS == retentionUS {
			return b, true
		}
	}
	return ComponentEnergyBar{}, false
}

// FindLevel is FindScalar for LevelEnergyBar series.
func FindLevel(bars []LevelEnergyBar, label string, retentionUS float64) (LevelEnergyBar, bool) {
	for _, b := range bars {
		if b.Point.Label() == label && b.Point.RetentionUS == retentionUS {
			return b, true
		}
	}
	return LevelEnergyBar{}, false
}
