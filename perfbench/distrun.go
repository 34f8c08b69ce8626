package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/sim"
)

// distCampaign is the fixed-grid gamma campaign (paper Fig. 9 task
// law, total work 100, no faults) split across a coordinator and two
// loopback workers. Most of its time is inverse-CDF truncated-gamma
// sampling, so sampler and kernel changes show here, beside the lease
// protocol and the coordinator ledger.
var distCampaign = campaignSpec{task: taskGamma, totalWork: 100}

// distTargetLease is distrun -target-lease: short enough that the last
// leases of a run finish close together.
const distTargetLease = 250 * time.Millisecond

// distributed runs one campaign grid through an in-process
// distrun.Coordinator on a loopback listener and two distrun.RunWorker
// workers with one local worker each, as cmd/distrun does across
// processes. A non-empty snapshot path makes the coordinator's ledger
// durable.
func (p *mcProbe) distributed(ctx context.Context, e *env, c campaignSpec, trials int, seed uint64, rep uint64,
	snapshot string) (mcRep, [][]byte, error) {
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
	fp := c.fingerprint("campaign", seed, trials)
	co, err := distrun.NewCoordinator(distrun.CoordinatorConfig{
		NumJobs: len(jobs), Seed: seed, Fingerprint: fp,
		Check:       func(_ int, data []byte) error { return sim.CheckCampaignPayload(data) },
		TargetLease: distTargetLease,
		Checkpoint:  engine.Checkpoint{Path: snapshot, Interval: snapshotInterval},
		Reg:         p.reg,
	})
	if err != nil {
		return r, nil, err
	}
	var h http.Handler = co.Handler()
	if p.tr != nil {
		h = &tracedHandler{next: h, name: "distrun.handler", tr: p.tr}
	}
	srv, err := httpd.Listen("127.0.0.1:0", h)
	if err != nil {
		return r, nil, err
	}
	defer srv.Shutdown(2 * time.Second)
	url := "http://" + srv.Addr().String()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		client := httpd.NewClient()
		if p.tr != nil {
			client.SetTransport(&tracedTransport{next: client.Transport(), name: "distrun.rtt", tr: p.tr})
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = distrun.RunWorker(wctx, distrun.WorkerConfig{
				URL: url, Name: fmt.Sprintf("worker%d", w),
				NumJobs: len(jobs), Seed: seed, Fingerprint: fp,
				Job:     func(i int) engine.Job { return jobs[i] },
				Workers: 1,
				Client:  client,
				Reg:     p.reg,
			})
		}(w)
	}
	e.attempted.Add(int64(len(jobs)))
	res, runErr := co.Wait(ctx)
	end := time.Now()

	// Workers exit once they see the run is done; one parked in a wait
	// retry needs up to one more lease request for that.
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		cancel()
		<-exited
	}
	if runErr != nil {
		e.failed.Add(int64(len(jobs) - res.Done()))
		return r, nil, runErr
	}
	for w, err := range werrs {
		if err != nil {
			return r, nil, fmt.Errorf("worker%d: %w", w, err)
		}
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

func runDistrunGamma(ctx context.Context, e *env) error {
	trials := e.scaled(32768, 64)
	var last [][]byte
	var lastSeed uint64
	phase := func(tr *tracer, seconds float64) (*mcPhase, *mcProbe, error) {
		p := newMCProbe(tr)
		defer p.close()
		ph := &mcPhase{}
		err := repeatUntil(seconds, 3, func(i int) error {
			dir, err := e.tempDir("distrun-")
			if err != nil {
				return err
			}
			defer removeAll(e, dir)
			seed := repSeed(e.opts.seed, i)
			r, payloads, err := p.distributed(ctx, e, distCampaign, trials, seed, uint64(i), filepath.Join(dir, "ledger.ckpt"))
			if err != nil {
				return err
			}
			last, lastSeed = payloads, seed
			ph.reps = append(ph.reps, r)
			ph.wall += r.result
			return nil
		})
		return ph, p, err
	}
	ph, p, err := measureMC(e, phase)
	if err != nil {
		return err
	}
	if e.tr != nil {
		snap := p.reg.Snapshot()
		e.set("distrun.leases_issued", float64(snap.Counters["distrun.leases_issued"]))
		e.set("distrun.lease_batch", snap.Gauges["distrun.lease_batch"])
		e.set("distrun.jobs_requeued", float64(snap.Counters["distrun.jobs_requeued"]))
		// Lease and result exchanges block the worker; heartbeats run
		// beside its jobs.
		spans := e.tr.snapshot()
		var rtt []float64
		var idle float64
		for _, s := range spans {
			if s.Name == "distrun.rtt"+distrun.PathLease || s.Name == "distrun.rtt"+distrun.PathResult {
				rtt = append(rtt, float64(s.dur()))
				idle += float64(s.dur())
			}
		}
		busy := float64(ph.wall) * workers
		e.set("distrun.rtt_us.p50", quantile(rtt, 0.5)/1e3)
		e.set("distrun.rtt_us.p99", quantile(rtt, 0.99)/1e3)
		e.set("distrun.worker_idle_frac", idle/busy)
		self := selfTimes(spans, nil)
		var net float64
		for name, v := range self {
			if strings.HasPrefix(name, "distrun.rtt") {
				net += v
			}
		}
		e.set("self.http_frac", self["distrun.handler"]/busy)
		e.set("self.net_frac", net/busy)

		// A snapshot of the whole grid: the largest state the ledger writes.
		st := ckpt.New(ckpt.KindJobs, distCampaign.fingerprint("campaign", lastSeed, trials), lastSeed, int64(len(last)), 1)
		for b, data := range last {
			st.Blocks[b] = data
		}
		ms, err := timeSnapshotWrite(e, st)
		if err != nil {
			return err
		}
		e.set("ckpt.write_ms", ms)
	}
	checkDistrunLocal(ctx, e, e.scaled(2048, 64))
	return checkPaperInstance(ctx, e)
}

// checkDistrunLocal runs a small grid locally with 1 worker, locally
// with 2, and distributed, and requires bit-identical payloads.
func checkDistrunLocal(ctx context.Context, e *env, trials int) {
	var runs [3][][]byte
	for k := 0; k < 3; k++ {
		p := newMCProbe(nil)
		var err error
		if k < 2 {
			_, runs[k], err = p.fixedGrid(ctx, e, distCampaign, trials, e.opts.seed, k+1, 1<<20)
		} else {
			_, runs[k], err = p.distributed(ctx, e, distCampaign, trials, e.opts.seed, 1<<20, "")
		}
		if err != nil {
			e.check("distrun_bit_identical", false, "run %d: %v", k, err)
			return
		}
	}
	e.check("workers_bit_identical", equalPayloads(runs[0], runs[1]), "%d trials, local 1 vs 2 workers", trials)
	e.check("distrun_bit_identical", equalPayloads(runs[1], runs[2]), "%d trials, distributed vs local", trials)
}
