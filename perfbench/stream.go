package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/engine"
	"reskit/internal/sim"
	"reskit/internal/stats"
)

// streamCampaign is simulate -campaign -until-ci on normal tasks with
// crashes (MTBF 100) and checkpoint failures (5%).
var streamCampaign = campaignSpec{task: taskNorm, totalWork: 500, mtbf: 100, ckptFail: 0.05}

// streamStop is the stop rule: utilization CI half-width within 0.1% of
// the mean, with quantile stability.
const streamStop = "rel=0.001,qtol=0.02"

// tracedSink times each ordered commit (fold + stop rule) of the
// program's sink.
type tracedSink struct {
	engine.StreamSink
	tr      *tracer
	rep     uint64
	commits durations
}

func (s *tracedSink) Commit(i int, payload []byte) (bool, error) {
	if s.tr == nil {
		return s.StreamSink.Commit(i, payload)
	}
	t0 := s.tr.now()
	start := time.Now()
	stop, err := s.StreamSink.Commit(i, payload)
	s.commits.add(time.Since(start))
	s.tr.record(span{ID: s.tr.newID(), Trace: s.rep<<32 | uint64(i) + 1, Name: "stream.commit", Start: t0, End: s.tr.now()})
	return stop, err
}

// streamRep is one streamed campaign.
type streamRep struct {
	mcRep
	stream *sim.CampaignStream
	res    *engine.StreamResult
}

// stream runs one streaming campaign to its stop rule through
// engine.RunStream, as simulate -until-ci does, with frontier snapshots
// when a snapshot path is given and a trial budget when budget > 0.
func (p *mcProbe) stream(ctx context.Context, e *env, seed uint64, nworkers, budget int, rep uint64,
	snapshot string, sink *tracedSink) (streamRep, error) {

	var r streamRep
	p.firstDispatch.Store(0)
	var m0 uint64
	if p.tr != nil {
		m0 = mallocs()
	}
	start := time.Now()
	stop, err := stats.ParseStop(streamStop)
	if err != nil {
		return r, err
	}
	cfg, err := p.build(ctx, streamCampaign)
	if err != nil {
		return r, err
	}
	cs, err := sim.NewCampaignStream(cfg, stop, "util")
	if err != nil {
		return r, err
	}
	src := cs.Source()
	next := 0
	wrapped := engine.SourceFunc(func() (engine.Job, bool) {
		j, ok := src.Next()
		if ok {
			next++
			e.attempted.Add(1)
			j = p.wrapJob(j, rep<<32|uint64(next))
		}
		return j, ok
	})
	sink.StreamSink, sink.rep = cs, rep
	spec := engine.StreamSpec{
		Source: wrapped, Sink: sink, Seed: seed, Workers: nworkers,
		Fingerprint: streamCampaign.fingerprint("campaign stream target=util stop="+stop.String(), seed, 0),
		MaxJobs:     sim.StreamBlocks(budget),
		Reg:         p.reg,
	}
	if snapshot != "" {
		spec.Checkpoint = engine.Checkpoint{Path: snapshot, Interval: snapshotInterval}
	}
	res, err := engine.RunStream(ctx, spec)
	end := time.Now()
	if err != nil {
		e.failed.Add(1)
		return r, err
	}
	first := time.Unix(0, p.firstDispatch.Load())
	r.setup = first.Sub(start)
	r.result = end.Sub(first)
	r.trials = cs.Trials()
	r.jobs = p.jobs.take()
	if p.tr != nil {
		r.mallocs = mallocs() - m0
	}
	r.stream, r.res = cs, res
	return r, nil
}

func runStreamNormFaults(ctx context.Context, e *env) error {
	budget := 0 // the stop rule ends the run
	if e.opts.scale < 1 {
		budget = e.scaled(1<<20, 64)
	}
	var last *sim.CampaignStream
	var toStop []float64
	var sink *tracedSink
	phase := func(tr *tracer, seconds float64) (*mcPhase, *mcProbe, error) {
		p := newMCProbe(tr)
		defer p.close()
		ph := &mcPhase{}
		sink = &tracedSink{tr: tr}
		toStop = toStop[:0]
		err := repeatUntil(seconds, 3, func(i int) error {
			dir, err := e.tempDir("stream-")
			if err != nil {
				return err
			}
			defer removeAll(e, dir)
			r, err := p.stream(ctx, e, repSeed(e.opts.seed, i), workers, budget, uint64(i), filepath.Join(dir, "run.ckpt"), sink)
			if err != nil {
				return err
			}
			if !r.res.Stopped && budget == 0 {
				return fmt.Errorf("stream ended without its stop rule (%d trials)", r.trials)
			}
			ph.reps = append(ph.reps, r.mcRep)
			ph.wall += r.result
			toStop = append(toStop, float64(r.trials))
			last = r.stream
			return nil
		})
		return ph, p, err
	}
	if _, _, err := measureMC(e, phase); err != nil {
		return err
	}
	if e.tr != nil {
		commits := sink.commits.take()
		e.set("stream.commit_us.p50", quantile(commits, 0.5)/1e3)
		e.set("stream.commit_us.p99", quantile(commits, 0.99)/1e3)
		e.set("stream.trials_to_stop", median(toStop))
		state, err := last.State()
		if err != nil {
			return err
		}
		st := ckpt.NewStream(0, e.opts.seed)
		st.SetStream(int64(last.Trials()/sim.StreamBlockTrials), state)
		ms, err := timeSnapshotWrite(e, st)
		if err != nil {
			return err
		}
		e.set("ckpt.write_ms", ms)
	}
	checkStreamWorkers(ctx, e, budget)
	return checkPaperInstance(ctx, e)
}

// checkStreamWorkers streams the campaign with 1 and with 2 workers and
// requires that the run ends the same way (the stop rule fires, unless
// a budget is given), at the same frontier, with bit-identical sink
// state.
func checkStreamWorkers(ctx context.Context, e *env, budget int) {
	var states [2][]byte
	var frontiers [2]int
	var stopped [2]bool
	for k, w := range []int{1, 2} {
		p := newMCProbe(nil)
		r, err := p.stream(ctx, e, e.opts.seed, w, budget, 1<<20, "", &tracedSink{})
		if err != nil {
			e.check("workers_bit_identical", false, "stream with %d workers: %v", w, err)
			return
		}
		if states[k], err = r.stream.State(); err != nil {
			e.check("workers_bit_identical", false, "sink state: %v", err)
			return
		}
		frontiers[k], stopped[k] = r.res.Committed, r.res.Stopped
	}
	ok := frontiers[0] == frontiers[1] && stopped[0] == stopped[1] && bytes.Equal(states[0], states[1])
	if budget == 0 {
		ok = ok && stopped[0]
	}
	e.check("workers_bit_identical", ok, "stream to the stop rule (budget %d trials), 1 vs 2 workers: stopped %v/%v, frontier %d/%d",
		budget, stopped[0], stopped[1], frontiers[0], frontiers[1])
}

// timeSnapshotWrite times ckpt.State.WriteFile of st (the median of a
// few writes) in a temporary directory, in ms.
func timeSnapshotWrite(e *env, st *ckpt.State) (float64, error) {
	dir, err := e.tempDir("snap-")
	if err != nil {
		return 0, err
	}
	defer removeAll(e, dir)
	var xs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := st.WriteFile(filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i))); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/1e6)
	}
	return median(xs), nil
}
