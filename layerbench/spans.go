package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Start and End are
// nanoseconds since the tracer's base instant.  Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no guards.
type tracer struct {
	base time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now returns the current offset from the base instant (monotonic).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// at converts a wall-clock instant reported by the program (such as a job
// trace mark) to the tracer's offset.
func (t *tracer) at(w time.Time) int64 {
	if t == nil {
		return 0
	}
	return w.Sub(t.base.Round(0)).Nanoseconds()
}

// id reserves a span ID, so children can name a parent that has not ended.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent int64, op, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// add records a finished span under a fresh ID and returns the ID.
func (t *tracer) add(parent int64, op, name string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	id := t.id()
	t.record(id, parent, op, name, start, end)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and any part of a child outside the parent is ignored).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// summarize aggregates spans by name, sorted by self time, largest first.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	byName := make(map[string]*layerSummary)
	durs := make(map[string][]float64)
	for _, s := range spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			byName[s.Name] = l
		}
		l.Count++
		l.TotalMS += float64(s.dur()) / 1e6
		l.SelfMS += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
	}
	out := make([]layerSummary, 0, len(byName))
	for name, l := range byName {
		l.P50MS = median(durs[name])
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeTrace writes the span file and the per-layer self-time summary into
// dir and returns the span file's path.
func writeTrace(dir, stem string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	spanPath := filepath.Join(dir, stem+".spans.json")
	if err := writeJSONFile(spanPath, spans); err != nil {
		return "", err
	}
	if err := writeJSONFile(filepath.Join(dir, stem+".summary.json"), summarize(spans)); err != nil {
		return "", err
	}
	return spanPath, nil
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
