package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"reskit/internal/dist"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// sampleEvery is N of the deterministic 1-in-N subset of
// sub-microsecond calls (draws, decisions) the traced run times. Every
// call is counted; only the subset is timed, so the traced run stays
// close to the untraced one.
const sampleEvery = 1024

// shardedCounter counts calls from concurrent workers without sharing a
// cache line: each worker's rng source hashes to its own padded slot.
type shardedCounter struct {
	slots [64]struct {
		n atomic.Int64
		_ [56]byte
	}
}

// inc counts one call under key and returns the slot's new count.
// Keys are spread by a multiplicative hash, so nearby addresses rarely
// share a slot.
func (c *shardedCounter) inc(key uintptr) int64 {
	return c.slots[uint64(key)*0x9e3779b97f4a7c15>>58].n.Add(1)
}

func (c *shardedCounter) total() int64 {
	var n int64
	for i := range c.slots {
		n += c.slots[i].n.Load()
	}
	return n
}

// drawSampled reports whether the next draw from r is in the timed
// subset. It peeks the low bits of r's next output on a copy, leaving r
// untouched; those bits never reach the uniform variate (Float64 keeps
// the top 53), so the subset is deterministic and unbiased with respect
// to the drawn value.
func drawSampled(r *rng.Source) bool {
	peek := *r
	return peek.Uint64()%sampleEvery == 0
}

// jobScope is the trace context of one running job: its trace id, the
// span draws attach to, and a buffer of child spans flushed when the
// job ends (a job runs on one goroutine, so the buffer needs no lock).
type jobScope struct {
	trace  uint64
	parent uint64
	buf    []span
}

// scopes maps a worker's rng source to the job it is running. Laws see
// only the source, so this is how a sampled draw finds its parent.
type scopes struct {
	mu sync.RWMutex
	m  map[*rng.Source]*jobScope
}

func (s *scopes) enter(src *rng.Source, js *jobScope) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[*rng.Source]*jobScope)
	}
	s.m[src] = js
	s.mu.Unlock()
}

func (s *scopes) leave(src *rng.Source) {
	s.mu.Lock()
	delete(s.m, src)
	s.mu.Unlock()
}

func (s *scopes) lookup(src *rng.Source) *jobScope {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[src]
}

// tracedLaw wraps a law's Sample: every draw is counted, the sampled
// subset is timed as a weighted span under the running job.
type tracedLaw struct {
	dist.Continuous
	name   string
	tr     *tracer
	scopes *scopes
	draws  *shardedCounter
}

func (l *tracedLaw) Sample(r *rng.Source) float64 {
	l.draws.inc(uintptr(unsafe.Pointer(r)) >> 6) // one key per source
	if !drawSampled(r) {
		return l.Continuous.Sample(r)
	}
	t0, cost := l.tr.startSample()
	v := l.Continuous.Sample(r)
	s := l.tr.sampled(span{ID: l.tr.newID(), Name: l.name}, t0, cost)
	if js := l.scopes.lookup(r); js != nil {
		s.Parent, s.Trace = js.parent, js.trace
		js.buf = append(js.buf, s)
	} else {
		l.tr.record(s)
	}
	return v
}

// tracedStrategy counts every decision and times every Nth call of a
// counter slot. Decide carries no job or worker identity, so the slot
// is keyed by the address of the decision state on the calling
// goroutine's stack, and the spans are recorded without a parent
// (selfTimes charges them to the sim.block layer as a whole). The
// subset is systematic, not deterministic: which job runs on which
// worker varies from run to run, a moved stack changes its key, and
// two workers may hash to one slot, where their calls interleave. The
// total count is exact whatever slot a call lands in.
type tracedStrategy struct {
	strategy.Strategy
	tr    *tracer
	calls *shardedCounter
}

func (s *tracedStrategy) Decide(st strategy.State) strategy.Action {
	// Live goroutine stacks never overlap, so distinct workers give
	// distinct addresses; only the slot hash can make them share.
	if s.calls.inc(uintptr(unsafe.Pointer(&st))>>4)%sampleEvery != 0 {
		return s.Strategy.Decide(st)
	}
	t0, cost := s.tr.startSample()
	a := s.Strategy.Decide(st)
	s.tr.record(s.tr.sampled(span{ID: s.tr.newID(), Name: "strategy.decide"}, t0, cost))
	return a
}

// traceHeader carries a request's trace and parent span ids across the
// loopback HTTP boundary, so server spans join the client's trace.
const traceHeader = "X-Perfbench-Trace"

func formatTraceHeader(trace, parent uint64) string {
	return strconv.FormatUint(trace, 16) + "." + strconv.FormatUint(parent, 16)
}

func parseTraceHeader(v string) (trace, parent uint64) {
	for i := 0; i < len(v); i++ {
		if v[i] == '.' {
			trace, _ = strconv.ParseUint(v[:i], 16, 64)
			parent, _ = strconv.ParseUint(v[i+1:], 16, 64)
			return trace, parent
		}
	}
	return 0, 0
}

// tracedHandler records one span per served request.
type tracedHandler struct {
	next http.Handler
	name string
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.tr.now()
	h.next.ServeHTTP(w, r)
	trace, parent := parseTraceHeader(r.Header.Get(traceHeader))
	h.tr.record(span{ID: h.tr.newID(), Parent: parent, Trace: trace, Name: h.name, Start: t0, End: h.tr.now()})
}

// tracedTransport records one span per client round trip, named by the
// prefix and the request path, and stamps the trace header, so the
// server's handler span becomes its child.
type tracedTransport struct {
	next  http.RoundTripper
	name  string
	tr    *tracer
	trace atomic.Uint64 // next trace id for requests without one
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.newID()
	trace := t.trace.Add(1) | 1<<62
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, formatTraceHeader(trace, id))
	t0 := t.tr.now()
	resp, err := t.next.RoundTrip(req)
	t.tr.record(span{ID: id, Trace: trace, Name: t.name + req.URL.Path, Start: t0, End: t.tr.now()})
	return resp, err
}
