package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"reskit/internal/advisor"
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/httpd"
	"reskit/internal/lawspec"
	"reskit/internal/obs"
	"reskit/internal/quad"
	"reskit/internal/rng"
)

// Open-loop traffic of advise-open-loop: Poisson arrivals of queries on
// a few warm keys (hits), beside a thin stream of queries on unique
// keys (misses) that build a fresh dynamic table each and write it to
// the store.
//
// The mix is a chosen design point, not observed traffic. Closed loop
// over one loopback connection on a 2-CPU host, a hit takes about
// 113 µs (8,650/s) and 125 µs of CPU, client and server together; a
// miss takes about 37 ms and 60 ms of CPU, since the table build runs
// on both CPUs. At these rates the hit connection is about 11% busy
// (latency is service time, not queueing), builds use about 15% of the
// host's CPU, and a build is running for about 18% of the load, so
// roughly one hit in six meets one. A run of 35 s then has 350 hits
// beyond the hit p99 and 87 misses beyond the miss p50. At 10 misses/s
// builds overlapped often enough that the hit p90 of one seed in five
// rose fivefold from queueing, so the miss rate stays at 5/s.
const (
	hitRate    = 1000.0 // hits per second
	missRate   = 5.0    // misses per second
	setupReps  = 10     // fresh servers whose set-up is timed
	reqTimeout = 10 * time.Second
)

// warmKeys are the hit keys; dynamic queries get a fresh Work each. The
// preemptible question needs a checkpoint law of bounded support, so it
// uses the paper's Section 3 instance.
var warmKeys = []advisor.Query{
	{Mode: advisor.ModeDynamic, R: paperR, Task: taskNorm, Ckpt: ckptLaw},
	{Mode: advisor.ModeDynamic, R: paperR, Task: taskGamma, Ckpt: ckptLaw},
	{Mode: advisor.ModeStatic, R: paperR, Task: "norm:3,0.5", Ckpt: ckptLaw},
	{Mode: advisor.ModePreempt, R: 10, Ckpt: "exp:0.5@[1,5]"},
}

// request is one generated query and when it is due, relative to the
// start of the load.
type request struct {
	due   time.Duration
	query advisor.Query
}

// arrivals generates one connection's open-loop inputs from the seed,
// one request at a time: Poisson arrival times, and the query of each
// (the program receives only these). Nothing is generated ahead, so the
// generator holds no schedule in the heap beside the server's.
type arrivals struct {
	src     *rng.Source
	rate    float64 // requests per second
	horizon time.Duration
	t       time.Duration
	query   func(*rng.Source) advisor.Query
}

// hitArrivals are queries on the warm keys; dynamic ones get a fresh
// Work each.
func hitArrivals(seed uint64, seconds float64) *arrivals {
	return newArrivals(rng.NewStream(seed, 1), hitRate, seconds, func(src *rng.Source) advisor.Query {
		q := warmKeys[src.Intn(len(warmKeys))]
		if q.Mode == advisor.ModeDynamic {
			q.Work = src.Uniform(0, q.R)
		}
		return q
	})
}

// missArrivals are dynamic queries with a fresh R each: a unique key,
// never cached, never stored.
func missArrivals(seed uint64, seconds float64) *arrivals {
	return newArrivals(rng.NewStream(seed, 2), missRate, seconds, func(src *rng.Source) advisor.Query {
		r := src.Uniform(24, 34)
		return advisor.Query{Mode: advisor.ModeDynamic, R: r, Task: taskNorm, Ckpt: ckptLaw, Work: src.Uniform(0, r)}
	})
}

func newArrivals(src *rng.Source, rate, seconds float64, query func(*rng.Source) advisor.Query) *arrivals {
	return &arrivals{src: src, rate: rate, horizon: time.Duration(seconds * float64(time.Second)), query: query}
}

// next returns the next request, or false past the horizon.
func (a *arrivals) next() (request, bool) {
	a.t += time.Duration(a.src.Exponential(a.rate) * float64(time.Second))
	if a.t >= a.horizon {
		return request{}, false
	}
	return request{due: a.t, query: a.query(a.src)}, true
}

// count returns how many requests a copy of a yields, leaving a
// untouched, so the outcome buffer is allocated once, before the load.
func (a *arrivals) count() int {
	src := *a.src
	c := *a
	c.src = &src
	n := 0
	for _, ok := c.next(); ok; _, ok = c.next() {
		n++
	}
	return n
}

// outcome is what the generator observed for one request: a few
// numbers, so its buffer stays small beside the server's heap.
type outcome struct {
	latency time.Duration // due -> replayed finish (see sender)
	late    time.Duration // send - max(due, previous response)
	rtt     time.Duration // send -> response read
	spanID  uint64
	ok      bool
}

// answered is a served answer kept for checkAnswers.
type answered struct {
	query  advisor.Query
	answer advisor.Answer
}

// keptAnswers is how many answers per connection the generator keeps
// for checkAnswers; the rest are checked for success and dropped.
const keptAnswers = 200

// connLog is one connection's record of the load.
type connLog struct {
	outs []outcome
	kept []answered
	last time.Duration // last response read, relative to the start
}

// adviseServer is one advisor behind a loopback listener, wired as
// cmd/advise wires it.
type adviseServer struct {
	adv *advisor.Advisor
	reg *obs.Registry
	srv *httpd.Server
	url string
	dir string
}

func startAdviseServer(e *env, tr *tracer) (*adviseServer, error) {
	dir, err := e.tempDir("store-")
	if err != nil {
		return nil, err
	}
	s := &adviseServer{reg: obs.NewRegistry(), dir: dir}
	if tr != nil {
		quad.ObserveEvals(s.reg.Counter("quad.evals"))
	}
	s.adv = advisor.New(advisor.Options{Dir: dir, Reg: s.reg})
	var h http.Handler = s.adv.Handler()
	if tr != nil {
		h = &tracedHandler{next: h, name: "http.handler", tr: tr}
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	if s.srv, err = httpd.Listen("127.0.0.1:0", mux); err != nil {
		removeAll(e, dir)
		return nil, err
	}
	s.url = "http://" + s.srv.Addr().String() + "/v1/advise"
	return s, nil
}

func (s *adviseServer) close(e *env) {
	if err := s.srv.Shutdown(2 * time.Second); err != nil {
		fmt.Fprintf(e.log, "perfbench: advisor shutdown: %v\n", err)
	}
	removeAll(e, s.dir)
}

// newConn returns a client holding at most one connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: httpd.ConnectTimeout}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}
}

// post sends one query and decodes the answer.
func post(c *http.Client, url string, body []byte, trace, parent uint64) (advisor.Answer, error) {
	var ans advisor.Answer
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return ans, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(traceHeader, formatTraceHeader(trace, parent))
	}
	resp, err := c.Do(req)
	if err != nil {
		return ans, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return ans, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return ans, json.Unmarshal(data, &ans)
}

// warm serves one query per warm key, building their tables: the end
// of a server's set-up.
func (s *adviseServer) warm(c *http.Client) error {
	for _, q := range warmKeys {
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		if _, err := post(c, s.url, body, 0, 0); err != nil {
			return fmt.Errorf("warming %s: %w", q.Mode, err)
		}
	}
	return nil
}

// sender drives one connection through the requests next yields (n
// of them at most: the size of the outcome buffer). A request is timed
// from when it was due, so a stall delays — and is charged to — every
// request queued behind it. The generator's own oversleep is not: Go
// timers wake up to a millisecond late, which would swamp a
// sub-millisecond hit, and a spinning generator would take one of the
// host's two CPUs from the server. So each request's measured round
// trip is replayed on the exact schedule: it starts at its due time or
// when the previous replayed request finished, whichever is later, and
// its latency runs from the due time to the replayed finish. The
// oversleep itself — how much later than that start the send really
// went out — is reported as loadgen.late_p99_us.
func sender(c *http.Client, url string, tr *tracer, start time.Time, next func() (request, bool), n int, traceBase uint64) *connLog {
	lg := &connLog{outs: make([]outcome, 0, n)}
	var ideal time.Duration // replayed finish of the previous request
	prev := start           // actual finish of the previous request
	for i := 0; i < n; i++ {
		r, more := next()
		if !more {
			break
		}
		body, err := json.Marshal(r.query)
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		o := outcome{late: sent.Sub(later(due, prev))}
		var t0 int64
		if tr != nil {
			o.spanID = tr.newID()
			t0 = tr.now()
		}
		trace := traceBase + uint64(i) + 1
		var ans advisor.Answer
		if err == nil {
			ans, err = post(c, url, body, trace, o.spanID)
		}
		done := time.Now()
		if tr != nil {
			tr.record(span{ID: o.spanID, Trace: trace, Name: "loadgen.request", Start: t0, End: tr.now()})
		}
		o.rtt = done.Sub(sent)
		if ideal < r.due {
			ideal = r.due
		}
		ideal += o.rtt
		o.latency = ideal - r.due
		o.ok = err == nil
		if o.ok && len(lg.kept) < keptAnswers {
			lg.kept = append(lg.kept, answered{query: r.query, answer: ans})
		}
		lg.outs = append(lg.outs, o)
		lg.last = done.Sub(start)
		prev = done
	}
	return lg
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// advisePhase is one measured phase: fresh servers for the set-up
// timing, then the open-loop load against the last one.
type advisePhase struct {
	setup        []float64 // s
	hits, misses *connLog
	span         time.Duration // start -> last response
	reg          obs.Snapshot
	hitNS        float64
}

func runAdvisePhase(e *env, tr *tracer, seconds float64, seed uint64) (*advisePhase, error) {
	ph := &advisePhase{}
	var s *adviseServer
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close(e)
		}
		t0 := time.Now()
		var err error
		if s, err = startAdviseServer(e, tr); err != nil {
			return nil, err
		}
		if err := s.warm(newConn()); err != nil {
			s.close(e)
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}
	defer s.close(e)

	hits, misses := hitArrivals(seed, seconds), missArrivals(seed, seconds)
	nh, nm := hits.count(), misses.count()
	e.attempted.Add(int64(nh + nm))
	start := time.Now().Add(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ph.misses = sender(newConn(), s.url, tr, start, misses.next, nm, 1<<40)
	}()
	ph.hits = sender(newConn(), s.url, tr, start, hits.next, nh, 0)
	<-done
	for _, lg := range []*connLog{ph.hits, ph.misses} {
		for _, o := range lg.outs {
			if !o.ok {
				e.failed.Add(1)
			}
		}
		if lg.last > ph.span {
			ph.span = lg.last
		}
	}
	ph.reg = s.reg.Snapshot()
	if tr != nil {
		quad.ObserveEvals(nil)
		ph.hitNS = directHitNS(s.adv)
	}
	return ph, nil
}

// directHitNS times in-process Advise calls on a warm key (median of
// batches), without the HTTP layer.
func directHitNS(adv *advisor.Advisor) float64 {
	q := warmKeys[0]
	q.Work = 12
	ctx := context.Background()
	var xs []float64
	const batch = 2000
	for b := 0; b < 15; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := adv.Advise(ctx, q); err != nil {
				return math.NaN()
			}
		}
		xs = append(xs, float64(time.Since(t0))/batch)
	}
	return median(xs)
}

// latencies returns the successful outcomes' latencies (ns).
func latencies(outs []outcome, f func(outcome) time.Duration) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.ok {
			xs = append(xs, float64(f(o)))
		}
	}
	return xs
}

func runAdviseOpenLoop(ctx context.Context, e *env) error {
	seconds := e.opts.seconds
	if e.tr != nil {
		seconds /= 2
	}
	ph, err := runAdvisePhase(e, nil, seconds, e.opts.seed)
	if err != nil {
		return err
	}
	hitLat := latencies(ph.hits.outs, func(o outcome) time.Duration { return o.latency })
	missLat := latencies(ph.misses.outs, func(o outcome) time.Duration { return o.latency })
	if e.tr == nil {
		answered := len(hitLat) + len(missLat)
		e.set("setup_s", median(ph.setup))
		e.set("throughput_per_s", float64(answered)/ph.span.Seconds())
		e.set("result_ms", quantile(missLat, 0.5)/1e6)
		e.set("latency_us", quantile(hitLat, 0.5)/1e3)
		e.set("latency_p90_us", quantile(hitLat, 0.9)/1e3)
	} else {
		base := quantile(hitLat, 0.5)
		tp, err := runAdvisePhase(e, e.tr, seconds, e.opts.seed)
		if err != nil {
			return err
		}
		reportAdviseLayers(e, tp, base, missLat)
		ph = tp
	}
	checkAnswers(e, ph)
	return checkPaperInstance(ctx, e)
}

// reportAdviseLayers derives the per-layer metrics of the traced phase.
// The miss p90 pools the untraced phase's misses with the traced
// phase's: one phase alone has too few misses beyond its p90.
func reportAdviseLayers(e *env, ph *advisePhase, untracedHitP50 float64, untracedMissLat []float64) {
	hitLat := latencies(ph.hits.outs, func(o outcome) time.Duration { return o.latency })
	missLat := latencies(ph.misses.outs, func(o outcome) time.Duration { return o.latency })
	late := append(latencies(ph.hits.outs, func(o outcome) time.Duration { return o.late }),
		latencies(ph.misses.outs, func(o outcome) time.Duration { return o.late })...)

	spans := e.tr.snapshot()
	handler := make(map[uint64]float64) // client span id -> handler ns
	for _, s := range spans {
		if s.Name == "http.handler" {
			handler[s.Parent] = float64(s.dur())
		}
	}
	var hdl, net []float64
	for _, o := range ph.hits.outs {
		if h, ok := handler[o.spanID]; ok && o.ok {
			hdl = append(hdl, h)
			net = append(net, float64(o.rtt)-h)
		}
	}
	self := selfTimes(spans, nil)
	total := self["loadgen.request"] + self["http.handler"]

	e.set("advisor.hit_ns", ph.hitNS)
	e.set("advisor.hit_p99_us", quantile(hitLat, 0.99)/1e3)
	e.set("advisor.build_ms", ph.reg.Quantiles["advisor.build_ns"].P50/1e6)
	e.set("advisor.miss_p90_ms", quantile(append(missLat, untracedMissLat...), 0.9)/1e6)
	e.set("advisor.cache_hits", float64(ph.reg.Counters["advisor.cache_hits"]))
	e.set("advisor.builds", float64(ph.reg.Counters["advisor.builds"]))
	e.set("advisor.store_writes", float64(ph.reg.Counters["advisor.store_writes"]))
	e.set("core.table_build_ms", ph.reg.Quantiles["advisor.build_ns"].P50/1e6)
	e.set("quad.evals", float64(ph.reg.Counters["quad.evals"]))
	e.set("http.handler_us", quantile(hdl, 0.5)/1e3)
	e.set("http.net_us", quantile(net, 0.5)/1e3)
	e.set("loadgen.late_p99_us", quantile(late, 0.99)/1e3)
	e.set("self.http_frac", self["http.handler"]/total)
	e.set("self.net_frac", self["loadgen.request"]/total)
	e.set("trace.overhead_frac", quantile(hitLat, 0.5)/untracedHitP50-1)
}

// checkAnswers compares a sample of served answers with direct core
// computations: the first few misses, and up to 20 kept hits per key.
func checkAnswers(e *env, ph *advisePhase) {
	type built struct {
		dyn  *core.Dynamic
		wInt float64
	}
	cache := make(map[string]built)
	bad, checked := 0, 0
	var first string
	sample := append([]answered(nil), ph.misses.kept[:min(5, len(ph.misses.kept))]...)
	perKey := make(map[string]int)
	for _, a := range ph.hits.kept {
		k := fmt.Sprintf("%s/%s", a.query.Mode, a.query.Task)
		if perKey[k] < 20 {
			perKey[k]++
			sample = append(sample, a)
		}
	}
	for _, a := range sample {
		q := a.query
		ok, err := func() (bool, error) {
			ck, err := lawspec.Parse(q.Ckpt)
			if err != nil {
				return false, err
			}
			switch q.Mode {
			case advisor.ModePreempt:
				p, err := core.TryNewPreemptible(q.R, ck)
				if err != nil {
					return false, err
				}
				return p.OptimalX().X == a.answer.X, nil
			case advisor.ModeStatic:
				law, err := lawspec.Parse(q.Task)
				if err != nil {
					return false, err
				}
				sum, ok := law.(dist.Summable)
				if !ok {
					return false, fmt.Errorf("task law %v is not summable", law)
				}
				s, err := core.TryNewStatic(q.R, sum, ck)
				if err != nil {
					return false, err
				}
				sol := s.Optimize()
				return sol.NOpt == a.answer.NOpt && sol.ENOpt == a.answer.ENOpt, nil
			default:
				key := fmt.Sprintf("%v/%s", q.R, q.Task)
				b, ok := cache[key]
				if !ok {
					law, err := lawspec.Parse(q.Task)
					if err != nil {
						return false, err
					}
					if b.dyn, err = core.TryNewDynamic(q.R, law, ck); err != nil {
						return false, err
					}
					if b.wInt, err = b.dyn.Intersection(); err != nil {
						return false, err
					}
					cache[key] = b
				}
				return b.dyn.ShouldCheckpointAt(q.Work, q.Work) == a.answer.CheckpointNow && b.wInt == a.answer.WInt, nil
			}
		}()
		checked++
		if err != nil || !ok {
			bad++
			if first == "" {
				first = fmt.Sprintf("; first mismatch: %s R=%g work=%g (%v)", q.Mode, q.R, q.Work, err)
			}
		}
	}
	e.check("advisor_matches_core", bad == 0 && checked > 0, "%d sampled answers, %d differ from core%s", checked, bad, first)
}
