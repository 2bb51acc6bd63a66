package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported figure: its value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the name-to-figure map printed in the result line.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile (0 <= q <= 1) of xs by nearest rank on a
// sorted copy; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond a percentile before it is
// reported: with fewer, one outlier decides its value.
const tailSamples = 10

// supportedPercentile returns the highest of the candidate percentiles that
// leaves at least tailSamples of n samples beyond it, and false when even
// the lowest candidate does not.
func supportedPercentile(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		// The epsilon absorbs rounding in (100-p)/100, e.g. 9.999... for
		// p90 of 100 samples.
		if float64(n)*(100-p)/100 >= tailSamples-1e-9 && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentileNote renders the percentile rule's verdict for a sample set that
// the result line reports at percentile p: the sample count and the highest
// percentile those samples support.
func percentileNote(name string, n int, p float64) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(": ")
	b.WriteString(strconv.Itoa(n))
	b.WriteString(" samples, ")
	top, ok := supportedPercentile(n, 50, 90, 99, 99.9)
	switch {
	case !ok:
		b.WriteString("too few for any tail percentile")
	default:
		b.WriteString("highest supported percentile p" + strconv.FormatFloat(top, 'g', -1, 64))
	}
	if !ok || top < p {
		b.WriteString(" (reported p" + strconv.FormatFloat(p, 'g', -1, 64) + " is under-sampled)")
	}
	return b.String()
}

// peakRSSMB returns the process's resident-set high-water mark in MB
// (VmHWM), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// cpuNow returns the CPU time the process has used so far, in ns: user plus
// system time of all its threads, the garbage collector's included.  Unlike
// the wall clock it leaves out time the host gave to other tenants, which on
// a shared host spreads wall times from run to run.  The kernel
// brings a thread running on another CPU up to date only at its next tick,
// so a reading can lag by a few ms while a collection is running.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("layerbench: getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
