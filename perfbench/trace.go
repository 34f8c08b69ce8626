package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch. A span recorded for a 1-in-N sample of
// sub-microsecond calls carries Weight N: it stands for N calls when
// self times are derived.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Weight int64  `json:"weight,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) weight() int64 {
	if s.Weight > 1 {
		return s.Weight
	}
	return 1
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so call sites need no guard.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startSample begins timing a sampled call: it reads the clock twice
// back to back and returns the second reading and what one read cost
// right there. For calls of a hundred ns a clock read is a large share
// of the measured time, and it costs more inside a hot loop than in
// isolation.
func (t *tracer) startSample() (t0, cost int64) {
	a := t.now()
	t0 = t.now()
	return t0, t0 - a
}

// sampled completes the span of a call timed from startSample: it
// carries weight sampleEvery and excludes the clock read inside it.
func (t *tracer) sampled(s span, t0, cost int64) span {
	s.Start, s.End, s.Weight = t0, t.now()-cost, sampleEvery
	if s.End < s.Start {
		s.End = s.Start
	}
	return s
}

// now returns the tracer clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID allocates a span id (0 on a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recordAll stores a batch of finished spans under one lock.
func (t *tracer) recordAll(ss []span) {
	if t == nil || len(ss) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far. It shares the tracer's
// storage: callers read it once the traced phase is over.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of it its children cover, times its
// weight. Unweighted children cover the union of their intervals;
// weighted (sampled) children cover Weight times their duration, since
// each stands for that many calls of which only one was timed. That
// estimate is noisy span by span, so a span's self time may come out
// negative; only each name's total is floored at zero. A sampled call
// that was descheduled would stand for Weight descheduled calls, so a
// weighted duration counts at most sampledCap times its name's median.
//
// Some calls carry no identity of the job they run for (Strategy.Decide
// sees only the decision state), so their spans are recorded without a
// parent. orphanOf names the layer such a span belongs under; its
// weighted time is taken from that layer's total, not from one span.
func selfTimes(spans []span, orphanOf map[string]string) map[string]float64 {
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := make(map[int][]int)
	for i := range spans {
		if p, ok := byID[spans[i].Parent]; ok && spans[i].Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	caps := sampledCaps(spans)
	dur := func(s *span) int64 {
		if c, ok := caps[s.Name]; ok && s.dur() > c {
			return c
		}
		return s.dur()
	}
	out := make(map[string]float64)
	orphaned := make(map[string]float64)
	for i := range spans {
		s := &spans[i]
		d := dur(s)
		out[s.Name] += float64(s.weight() * (d - coverOf(spans, children[i], s.Start, s.End, dur)))
		if p, ok := orphanOf[s.Name]; ok && s.Parent == 0 {
			orphaned[p] += float64(s.weight() * d)
		}
	}
	for p, v := range orphaned {
		out[p] -= v
	}
	for name, v := range out {
		if v < 0 {
			out[name] = 0
		}
	}
	return out
}

// sampledCap bounds a sampled span's duration, in multiples of the
// median duration of its name.
const sampledCap = 20

// sampledCaps returns, per name of weighted spans, the duration cap.
func sampledCaps(spans []span) map[string]int64 {
	durs := make(map[string][]float64)
	for i := range spans {
		if spans[i].Weight > 1 {
			durs[spans[i].Name] = append(durs[spans[i].Name], float64(spans[i].dur()))
		}
	}
	caps := make(map[string]int64, len(durs))
	for name, xs := range durs {
		caps[name] = int64(sampledCap * quantile(xs, 0.5))
	}
	return caps
}

// coverOf is the time children cover inside [lo, hi]: the union of the
// unweighted children's intervals, clipped to [lo, hi], plus the
// weighted children's estimate (durations from dur).
func coverOf(spans []span, kids []int, lo, hi int64, dur func(*span) int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	var ivs []iv
	var weighted int64
	for _, k := range kids {
		c := &spans[k]
		if c.Weight > 1 {
			weighted += c.Weight * dur(c)
			continue
		}
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var union int64
	var curA, curB int64 = 0, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				union += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		union += curB - curA
	}
	return union + weighted
}

// writeSpans writes one JSON object per line: the run header first,
// then every span.
func writeSpans(path string, header runHeader, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": header}); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
