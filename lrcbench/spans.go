package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the public function it calls. Spans of one cell, sweep or
// request share a Group; Parent links a span to the call that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's call belongs to: the name up to the
// first dot ("runner.Exec" -> "runner").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a free no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cost accumulates host time spent inside the tracer itself.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(parent int, group, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now.Sub(t.t0).Nanoseconds()})
	t.cost += time.Since(now)
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (runner
// lifecycle events carry their own timestamps).
func (t *tracer) add(parent int, group, name string, start, end time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, group, name string, f func()) {
	id := t.begin(parent, group, name)
	f()
	t.end(id)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTime returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its child spans cover.
// Children running in parallel are merged before subtraction, so a span
// is never charged negative time.
func (t *tracer) selfTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		out[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coverage returns how much of [lo, hi] the union of ivs covers.
func coverage(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write saves every span as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
