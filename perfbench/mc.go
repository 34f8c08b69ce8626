package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/core"
	"reskit/internal/engine"
	"reskit/internal/fault"
	"reskit/internal/lawspec"
	"reskit/internal/obs"
	"reskit/internal/quad"
	"reskit/internal/rng"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

// The paper's canonical instance (Figures 8-10).
const (
	paperR    = 29.0
	taskNorm  = "norm:3,0.5@[0,inf]"
	taskGamma = "gamma:6,0.5@[0,inf]"
	ckptLaw   = "norm:5,0.4@[0,inf]"
	recovery  = 1.5

	// workers is the parallelism of every Monte-Carlo run: the core
	// count of the 2-CPU host the bounds were fitted on.
	workers = 2
	// snapshotInterval makes durable runs write several snapshots.
	snapshotInterval = 200 * time.Millisecond
)

// campaignSpec is one campaign configuration, as the simulate and
// distrun flags describe it.
type campaignSpec struct {
	task      string
	totalWork float64
	mtbf      float64 // 0: no crashes
	ckptFail  float64 // 0: no checkpoint failures
}

func (c campaignSpec) fingerprint(mode string, seed uint64, trials int) uint64 {
	return ckpt.Fingerprint(mode, fmt.Sprintf("R=%g", paperR), fmt.Sprintf("recovery=%g", recovery),
		"task="+c.task, "ckpt="+ckptLaw, fmt.Sprintf("totalwork=%g", c.totalWork),
		fmt.Sprintf("mtbf=%g ckptfail=%g", c.mtbf, c.ckptFail),
		fmt.Sprintf("trials=%d", trials), fmt.Sprintf("seed=%d", seed))
}

// mcProbe is the benchmark's view of one Monte-Carlo phase: the
// wrappers it installs at layer boundaries and what they collected.
// With a nil tracer only the job wrapper runs, timing each job.
type mcProbe struct {
	tr  *tracer
	reg *obs.Registry // the program's own instruments (traced runs)

	scopes               scopes
	taskDraws, ckptDraws shardedCounter
	decideCalls          shardedCounter

	firstDispatch atomic.Int64 // unix ns of the first job start
	jobs          durations    // job wall times
	tableBuild    []float64    // Prebuild ns per campaign build
}

func newMCProbe(tr *tracer) *mcProbe {
	p := &mcProbe{tr: tr}
	if tr != nil {
		p.reg = obs.NewRegistry()
		quad.ObserveEvals(p.reg.Counter("quad.evals"))
	}
	return p
}

// close detaches the process-global quadrature counter.
func (p *mcProbe) close() {
	if p.tr != nil {
		quad.ObserveEvals(nil)
	}
}

// build assembles the campaign exactly as simulate's campaign mode
// does — law parsing, the dynamic strategy, its coefficient table, the
// fault plan — with the probe's wrappers around the laws and the
// strategy in traced runs.
func (p *mcProbe) build(ctx context.Context, c campaignSpec) (sim.CampaignConfig, error) {
	var cfg sim.CampaignConfig
	ck, err := lawspec.Parse(ckptLaw)
	if err != nil {
		return cfg, err
	}
	law, err := lawspec.Parse(c.task)
	if err != nil {
		return cfg, err
	}
	dyn, err := core.TryNewDynamic(paperR, law, ck)
	if err != nil {
		return cfg, err
	}
	t0 := time.Now()
	if err := dyn.Prebuild(ctx); err != nil {
		return cfg, err
	}
	p.tableBuild = append(p.tableBuild, float64(time.Since(t0)))
	pol, err := strategy.TryNewDynamic(dyn)
	if err != nil {
		return cfg, err
	}
	var plan *fault.Plan
	if c.mtbf > 0 || c.ckptFail > 0 {
		plan = &fault.Plan{}
		if c.mtbf > 0 {
			if plan.Crash, err = fault.NewExpArrival(1 / c.mtbf); err != nil {
				return cfg, err
			}
		}
		if c.ckptFail > 0 {
			if plan.Ckpt, err = fault.NewCkptBernoulli(c.ckptFail); err != nil {
				return cfg, err
			}
		}
	}
	base := sim.Config{R: paperR, Recovery: recovery, Task: law, Ckpt: ck, Strategy: pol, Faults: plan}
	if p.tr != nil {
		base.Task = &tracedLaw{Continuous: law, name: "dist.task_draw", tr: p.tr, scopes: &p.scopes, draws: &p.taskDraws}
		base.Ckpt = &tracedLaw{Continuous: ck, name: "dist.ckpt_draw", tr: p.tr, scopes: &p.scopes, draws: &p.ckptDraws}
		base.Strategy = &tracedStrategy{Strategy: pol, tr: p.tr, calls: &p.decideCalls}
	}
	cfg = sim.CampaignConfig{Reservation: base, TotalWork: c.totalWork}
	return cfg, cfg.Validate()
}

// wrapJob times a job from the outside: the first call stamps the
// first dispatch, every call adds its wall time, and in traced runs the
// job becomes a sim.block span that sampled draws attach to.
func (p *mcProbe) wrapJob(j engine.Job, trace uint64) engine.Job {
	inner := j.Run
	j.Run = func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
		start := time.Now()
		p.firstDispatch.CompareAndSwap(0, start.UnixNano())
		if p.tr == nil {
			res, err := inner(ctx, src)
			p.jobs.add(time.Since(start))
			return res, err
		}
		js := &jobScope{trace: trace, parent: p.tr.newID()}
		p.scopes.enter(src, js)
		t0 := p.tr.now()
		res, err := inner(ctx, src)
		t1 := p.tr.now()
		p.scopes.leave(src)
		p.jobs.add(time.Since(start))
		js.buf = append(js.buf, span{ID: js.parent, Trace: trace, Name: "sim.block", Start: t0, End: t1})
		p.tr.recordAll(js.buf)
		return res, err
	}
	return j
}

// campaignJobs lays out a fixed-grid campaign as simulate does: one job
// per block, block b on substream b.
func campaignJobs(cfg sim.CampaignConfig, trials int) []engine.Job {
	jobs := make([]engine.Job, sim.NumCampaignBlocks(trials))
	for b := range jobs {
		b := b
		jobs[b] = engine.Job{
			Name:   fmt.Sprintf("block%d", b),
			Stream: uint64(b),
			Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
				data, err := sim.CampaignBlockPayload(ctx, cfg, trials, b, src)
				return engine.JobResult{Payload: data}, err
			},
		}
	}
	return jobs
}

// mcRep is what one campaign repetition measured.
type mcRep struct {
	setup   time.Duration // start -> first job dispatch
	result  time.Duration // first dispatch -> result
	trials  int
	jobs    []float64 // job wall times, ns
	mallocs uint64
}

// mcPhase summarizes the repetitions of one phase.
type mcPhase struct {
	reps []mcRep
	wall time.Duration // summed rep result time
}

// measured are the repetitions the speed metrics use: all but the
// first, which warms the heap, the caches and the code paths (the
// phase always runs at least three).
func (ph *mcPhase) measured() []mcRep {
	if len(ph.reps) < 2 {
		return ph.reps
	}
	return ph.reps[1:]
}

// throughput is trials per second over the measured repetitions
// together: their trials over their summed result time.
func (ph *mcPhase) throughput() float64 {
	var trials int
	var secs float64
	for _, r := range ph.measured() {
		trials += r.trials
		secs += r.result.Seconds()
	}
	return float64(trials) / secs
}

func (ph *mcPhase) trials() int {
	n := 0
	for _, r := range ph.reps {
		n += r.trials
	}
	return n
}

// reportEndToEnd sets the end-to-end metrics from an untraced phase.
// Job times are pooled over the measured repetitions; latency_us is
// their mean, not their median. On a 2-CPU host shared with other
// tenants they come in two humps about 1.5 times apart whose shares
// change from second to second, so their median jumps between the
// humps (repetition medians of 770 and 1150 µs within one distrun run)
// while the mean, like throughput, moves with the shares.
func (ph *mcPhase) reportEndToEnd(e *env) {
	var setup, result, jobs []float64
	for _, r := range ph.reps {
		setup = append(setup, r.setup.Seconds())
	}
	for _, r := range ph.measured() {
		result = append(result, float64(r.result)/1e6)
		jobs = append(jobs, r.jobs...)
	}
	var sum float64
	for _, x := range jobs {
		sum += x
	}
	e.set("setup_s", median(setup))
	e.set("throughput_per_s", ph.throughput())
	e.set("result_ms", median(result))
	e.set("latency_us", sum/float64(len(jobs))/1e3)
	e.set("latency_p90_us", quantile(jobs, 0.9)/1e3)
}

// reportLayers derives the per-layer metrics of a traced phase from its
// spans and the program's registry, and the tracing overhead against
// the untraced phase base.
func (p *mcProbe) reportLayers(e *env, ph, base *mcPhase) {
	spans := p.tr.snapshot()
	self := selfTimes(spans, map[string]string{"strategy.decide": "sim.block"})
	busy := ph.wall.Seconds() * 1e9 * workers
	trials := float64(ph.trials())

	var blocks []float64
	var jobSum float64
	for _, s := range spans {
		if s.Name == "sim.block" {
			blocks = append(blocks, float64(s.dur()))
			jobSum += float64(s.dur())
		}
	}
	e.set("sim.block_ms.p50", quantile(blocks, 0.5)/1e6)
	e.set("sim.block_ms.p99", quantile(blocks, 0.99)/1e6)
	e.set("dist.task_draw_ns", medianDur(spans, "dist.task_draw"))
	e.set("dist.ckpt_draw_ns", medianDur(spans, "dist.ckpt_draw"))
	e.set("dist.draws_per_trial", float64(p.taskDraws.total()+p.ckptDraws.total())/trials)
	e.set("strategy.decide_ns", medianDur(spans, "strategy.decide"))
	e.set("strategy.decisions_per_trial", float64(p.decideCalls.total())/trials)
	snap := p.reg.Snapshot()
	e.set("core.table_build_ms", median(p.tableBuild)/1e6)
	e.set("quad.evals", float64(snap.Counters["quad.evals"]))
	var mallocs uint64
	for _, r := range ph.reps {
		mallocs += r.mallocs
	}
	e.set("sim.allocs_per_trial", float64(mallocs)/trials)
	q := snap.Quantiles["engine.ns_per_job"]
	e.set("engine.job_us.p50", q.P50/1e3)
	e.set("engine.job_us.p99", q.P99/1e3)
	e.set("engine.overhead_frac", 1-jobSum/busy)
	e.set("ckpt.snapshots", float64(snap.Counters["ckpt.snapshots"]))
	e.set("ckpt.blocks_committed", float64(snap.Counters["ckpt.blocks_committed"]))

	e.set("self.dist_frac", (self["dist.task_draw"]+self["dist.ckpt_draw"])/busy)
	e.set("self.strategy_frac", self["strategy.decide"]/busy)
	e.set("self.sim_frac", self["sim.block"]/busy)
	e.set("self.stream_frac", self["stream.commit"]/busy)
	e.set("trace.overhead_frac", base.throughput()/ph.throughput()-1)
}

// medianDur is the median duration in ns of the spans named name (0
// when there are none): robust to the rare timed call that was
// descheduled.
func medianDur(spans []span, name string) float64 {
	var xs []float64
	for i := range spans {
		if spans[i].Name == name {
			xs = append(xs, float64(spans[i].dur()))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// mallocs reads the process allocation count (traced runs only: it
// stops the world).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// repSeed derives the seed of repetition i from the workload seed.
func repSeed(seed uint64, i int) uint64 {
	return rng.NewStream(seed, uint64(i)).Uint64()
}

// measureMC runs the untraced phase (the end-to-end metrics), or in a
// traced run an untraced half and a traced half (the per-layer metrics
// and the tracing overhead).
// It returns the traced phase and its probe (nil in an untraced run).
func measureMC(e *env, phase func(*tracer, float64) (*mcPhase, *mcProbe, error)) (*mcPhase, *mcProbe, error) {
	if e.tr == nil {
		ph, _, err := phase(nil, e.opts.seconds)
		if err != nil {
			return nil, nil, err
		}
		ph.reportEndToEnd(e)
		return nil, nil, nil
	}
	base, _, err := phase(nil, e.opts.seconds/2)
	if err != nil {
		return nil, nil, err
	}
	ph, p, err := phase(e.tr, e.opts.seconds/2)
	if err != nil {
		return nil, nil, err
	}
	p.reportLayers(e, ph, base)
	return ph, p, nil
}

// fixedGrid runs one fixed-grid campaign through engine.Run, as
// simulate -campaign does, and returns its measurements and payloads.
func (p *mcProbe) fixedGrid(ctx context.Context, e *env, c campaignSpec, trials int, seed uint64,
	nworkers int, rep uint64) (mcRep, [][]byte, error) {

	var r mcRep
	p.firstDispatch.Store(0)
	var m0 uint64
	if p.tr != nil {
		m0 = mallocs()
	}
	start := time.Now()
	cfg, err := p.build(ctx, c)
	if err != nil {
		return r, nil, err
	}
	jobs := campaignJobs(cfg, trials)
	for i := range jobs {
		jobs[i] = p.wrapJob(jobs[i], rep<<32|uint64(i)+1)
	}
	spec := engine.Spec{
		Jobs: jobs, Seed: seed, Fingerprint: c.fingerprint("campaign", seed, trials), Workers: nworkers,
		Check: func(_ int, data []byte) error { return sim.CheckCampaignPayload(data) },
		Reg:   p.reg,
	}
	e.attempted.Add(int64(len(jobs)))
	res, err := engine.Run(ctx, spec)
	end := time.Now()
	if err != nil {
		e.failed.Add(int64(len(jobs) - res.Done()))
		return r, nil, err
	}
	if _, err := sim.MergeCampaignPayloads(res.Payloads); err != nil {
		return r, nil, err
	}
	first := time.Unix(0, p.firstDispatch.Load())
	r.setup = first.Sub(start)
	r.result = end.Sub(first)
	r.trials = trials
	r.jobs = p.jobs.take()
	if p.tr != nil {
		r.mallocs = mallocs() - m0
	}
	return r, res.Payloads, nil
}

func equalPayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == nil || !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func removeAll(e *env, dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(e.log, "perfbench: removing %s: %v\n", dir, err)
	}
}
