package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"reskit"
	"reskit/internal/benchkit"
	"reskit/internal/engine"
	"reskit/internal/lawspec"
	"reskit/internal/sim"
)

// stopMarker names what cut a run short — the -timeout deadline, an
// interrupting signal, or (when the context is still live) jobs that
// failed permanently under -keep-going — for the partial-result rows.
func stopMarker(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return "stopped by -timeout"
	}
	if ctx.Err() == nil {
		return "degraded"
	}
	return "interrupted"
}

// ckptOpts carries the durable-run flags into the mode functions: where
// to snapshot, how often, whether to restore first, the configuration
// fingerprint guarding against resuming under a different setup, and
// the failure policy (retries, deadlines, keep-going). The policy is
// deliberately outside the fingerprint: retrying or resuming under a
// different policy is legal and still bit-identical.
type ckptOpts struct {
	path        string
	interval    time.Duration
	resume      bool
	fingerprint uint64
	failure     engine.Failure
}

// spec assembles the engine spec every mode shares: the job grid, the
// reproducibility contract, the durable-run layer from the CLI flags,
// and the observability wiring. Engine per-job progress stays nil here —
// the simulator observer already ticks per trial, and double-counting
// the same run would corrupt the ETA.
func (c ckptOpts) spec(jobs []engine.Job, seed uint64, workers int, out io.Writer, ob *simObs, check func(int, []byte) error) engine.Spec {
	sp := engine.Spec{
		Jobs:        jobs,
		Seed:        seed,
		Fingerprint: c.fingerprint,
		Workers:     workers,
		Checkpoint:  engine.Checkpoint{Path: c.path, Interval: c.interval, Resume: c.resume},
		Failure:     c.failure,
		Check:       check,
		Log:         out,
	}
	if ob != nil {
		sp.Reg = ob.reg
	}
	return sp
}

// checkCampaignPayload adapts the payload validator to the engine's
// restore hook.
func checkCampaignPayload(_ int, data []byte) error { return sim.CheckCampaignPayload(data) }

// campaignBase assembles the campaign configuration every campaign
// flavor (fixed grid, fault sweep, stream) shares: law parsing, the
// dynamic strategy built from the task/checkpoint laws, fault plan and
// observer wiring, validation. desc renders the laws for the banner.
func campaignBase(r, recovery, totalWork float64, taskSpec, taskDiscSpec string, ckpt reskit.Continuous,
	plan *reskit.FaultPlan, ob *simObs) (cfg reskit.CampaignConfig, desc string, err error) {

	if !(totalWork > 0) {
		return cfg, "", errors.New("-totalwork must be positive")
	}
	base := reskit.SimConfig{R: r, Recovery: recovery, Ckpt: ckpt, Faults: plan}
	ob.attach(&base)
	switch {
	case taskSpec != "":
		law, lerr := lawspec.Parse(taskSpec)
		if lerr != nil {
			return cfg, "", lerr
		}
		dyn, derr := reskit.TryNewDynamic(r, law, ckpt)
		if derr != nil {
			return cfg, "", derr
		}
		base.Task = law
		base.Strategy = ob.counted(reskit.DynamicStrategy(dyn))
		desc = fmt.Sprintf("X ~ %v, C ~ %v", law, ckpt)
	case taskDiscSpec != "":
		law, lerr := lawspec.ParseDiscrete(taskDiscSpec)
		if lerr != nil {
			return cfg, "", lerr
		}
		dyn, derr := reskit.TryNewDynamicDiscrete(r, law, ckpt)
		if derr != nil {
			return cfg, "", derr
		}
		base.TaskDisc = law
		base.Strategy = ob.counted(reskit.DynamicStrategy(dyn))
		desc = fmt.Sprintf("X ~ %v (discrete), C ~ %v", law, ckpt)
	default:
		return cfg, "", errors.New("-task or -taskdisc is required with -campaign")
	}
	cfg = reskit.CampaignConfig{Reservation: base, TotalWork: totalWork}
	if err := cfg.Validate(); err != nil {
		return cfg, "", err
	}
	return cfg, desc, nil
}

// runCampaignMode simulates the paper's multi-reservation campaign
// setting (Sections 1-2): the application needs -totalwork units of
// committed work and runs reservation after reservation under the
// dynamic checkpoint strategy, with recovery from the second reservation
// on. The campaign runs as a grid of engine jobs with a deterministic
// merge, so the printed aggregate is bit-identical for any worker count
// — including runs resumed from a -checkpoint snapshot.
func runCampaignMode(ctx context.Context, out io.Writer, r, recovery, totalWork float64, taskSpec, taskDiscSpec string,
	ckpt reskit.Continuous, trials int, seed uint64, workers int, benchJSON string,
	plan *reskit.FaultPlan, faultSweep string, ckOpts ckptOpts, ob *simObs) error {

	cfg, desc, err := campaignBase(r, recovery, totalWork, taskSpec, taskDiscSpec, ckpt, plan, ob)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: R=%g, %s, total work %g, %d trials\n\n", r, desc, totalWork, trials)

	if faultSweep != "" {
		return runFaultSweep(ctx, out, cfg, faultSweep, trials, seed, workers, benchJSON, ckOpts, ob)
	}
	if benchJSON != "" {
		return writeCampaignBench(ctx, out, cfg, trials, seed, benchJSON, ckOpts, ob)
	}

	if plan.Active() {
		fmt.Fprintf(out, "faults: %v\n\n", plan)
	}

	start := time.Now()
	res, runErr := engine.Run(ctx, ckOpts.spec(sim.CampaignJobs(nil, "", cfg, trials), seed, workers, out, ob, checkCampaignPayload))
	elapsed := time.Since(start)
	// A restore error (malformed block payload) or a job out of retry
	// budget is a real failure, not an interruption: surface it instead
	// of printing partial numbers. Interrupted and keep-going-degraded
	// runs fall through to the partial report.
	if err := hardFailure(ctx, runErr, res); err != nil {
		return err
	}
	agg, err := sim.MergeCampaignPayloads(res.Payloads)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "mean reservations\t%.4g\n", agg.Reservations)
	fmt.Fprintf(tw, "mean utilization\t%.4g\n", agg.Utilization)
	fmt.Fprintf(tw, "mean lost work\t%.4g\n", agg.LostWork)
	if plan.Active() {
		fmt.Fprintf(tw, "mean ckpt faults\t%.4g\n", agg.CkptFaults)
		fmt.Fprintf(tw, "mean crashes\t%.4g\n", agg.Crashes)
		fmt.Fprintf(tw, "mean revoked res\t%.4g\n", agg.RevokedRes)
	}
	fmt.Fprintf(tw, "completion rate\t%.4g\n", agg.CompletionRate)
	fmt.Fprintf(tw, "all completed\t%v\n", agg.CompletedAll)
	fmt.Fprintf(tw, "wall time\t%v (%.0f trials/s)\n",
		elapsed.Round(time.Millisecond), float64(agg.Trials)/elapsed.Seconds())
	if runErr != nil && ckOpts.path == "" && ctx.Err() != nil {
		fmt.Fprintf(tw, "interrupted\t%s after %d/%d trials\n", stopMarker(ctx), agg.Trials, trials)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return finishRun(ctx, out, runErr, res, ckOpts)
}

// runFaultSweep reruns the campaign over a grid of MTBF values (keeping
// any other configured fault models fixed) and prints the trade-off the
// fault models create: more frequent crashes mean more lost work, lower
// utilization, and eventually campaigns that cannot finish within the
// reservation cap. The whole grid is one engine run — every (row, block)
// cell is a job — so -checkpoint/-resume spans the sweep and a resumed
// grid is bit-identical to an uninterrupted one.
func runFaultSweep(ctx context.Context, out io.Writer, cfg reskit.CampaignConfig, sweep string,
	trials int, seed uint64, workers int, benchJSON string, ckOpts ckptOpts, ob *simObs) error {

	// The per-row configs (base campaign with the crash model swapped)
	// come from the sweep layer shared with cmd/distrun, so a distributed
	// sweep computes the identical payload functions.
	mtbfs, cfgs, err := sim.FaultSweepConfigs(cfg, sweep)
	if err != nil {
		return fmt.Errorf("-faultsweep: %w", err)
	}

	numBlocks := sim.NumCampaignBlocks(trials)
	jobs := sim.FaultSweepJobs(mtbfs, cfgs, trials)

	res, runErr := engine.Run(ctx, ckOpts.spec(jobs, seed, workers, out, ob, checkCampaignPayload))
	if err := hardFailure(ctx, runErr, res); err != nil {
		return err
	}

	type sweepRow struct {
		MTBF           float64 `json:"mtbf"`
		LostWork       float64 `json:"mean_lost_work"`
		Utilization    float64 `json:"mean_utilization"`
		Reservations   float64 `json:"mean_reservations"`
		Crashes        float64 `json:"mean_crashes"`
		CompletionRate float64 `json:"completion_rate"`
	}
	rows := make([]sweepRow, 0, len(mtbfs))

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "MTBF\tE(lost)\tE(util)\tE(res)\tE(crashes)\tcompletion\n")
	for ri, m := range mtbfs {
		agg, err := sim.MergeCampaignPayloads(res.Payloads[ri*numBlocks : (ri+1)*numBlocks])
		if err != nil {
			return err
		}
		if int(agg.Trials) < trials {
			fmt.Fprintf(tw, "%g\t(%s after %d/%d trials)\n", m, stopMarker(ctx), agg.Trials, trials)
			break
		}
		rows = append(rows, sweepRow{
			MTBF:           m,
			LostWork:       agg.LostWork,
			Utilization:    agg.Utilization,
			Reservations:   agg.Reservations,
			Crashes:        agg.Crashes,
			CompletionRate: agg.CompletionRate,
		})
		fmt.Fprintf(tw, "%g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
			m, agg.LostWork, agg.Utilization, agg.Reservations, agg.Crashes, agg.CompletionRate)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if ferr := finishRun(ctx, out, runErr, res, ckOpts); ferr != nil {
		return ferr
	}

	if benchJSON == "" || runErr != nil {
		return nil
	}
	snap := struct {
		benchkit.Header
		Benchmark   string     `json:"benchmark"`
		Trials      int        `json:"trials"`
		Reservation float64    `json:"reservation"`
		TotalWork   float64    `json:"total_work"`
		Sweep       []sweepRow `json:"sweep"`
	}{
		Header:      benchkit.NewHeader(),
		Benchmark:   "CampaignFaultSweep",
		Trials:      trials,
		Reservation: cfg.Reservation.R,
		TotalWork:   cfg.TotalWork,
		Sweep:       rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := reskit.WriteFileAtomic(benchJSON, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfault-sweep snapshot -> %s\n", benchJSON)
	return nil
}

// benchWorkerSweep is the worker grid of a -benchjson run: serial
// baseline plus two oversubscription points, so the snapshot records
// the scaling curve of the machine it ran on (GOMAXPROCS is in the
// header for the reader to judge it by).
var benchWorkerSweep = []int{1, 4, 8}

// benchReps is the min-of-N repetition count of a -benchjson run.
const benchReps = 5

// engineMetrics flattens the observability registry into a snapshot
// row's metrics map: counters and gauges keep their names (the
// engine's "engine.jobs_per_sec" among them), quantile sketches expand
// to .p50/.p90/.p99 ("engine.ns_per_job.p50", ...). These are the very
// instruments -metrics reports, so the two outputs can never disagree
// about what a run measured. Returns nil when observability is off.
func engineMetrics(ob *simObs) map[string]float64 {
	snap := ob.snapshot()
	if snap == nil {
		return nil
	}
	m := make(map[string]float64, len(snap.Counters)+len(snap.Gauges)+3*len(snap.Quantiles))
	for name, v := range snap.Counters {
		m[name] = float64(v)
	}
	for name, v := range snap.Gauges {
		m[name] = v
	}
	for name, q := range snap.Quantiles {
		m[name+".p50"] = q.P50
		m[name+".p90"] = q.P90
		m[name+".p99"] = q.P99
	}
	return m
}

// writeCampaignBench times the campaign Monte-Carlo through the engine
// across the benchWorkerSweep worker grid, min-of-benchReps per cell,
// checks the merged aggregates are bit-identical across the sweep, and
// writes a benchkit schema-v2 snapshot to path. Timed runs bypass the
// -checkpoint layer: the benchmark measures simulation throughput, not
// snapshot IO.
func writeCampaignBench(ctx context.Context, out io.Writer, cfg reskit.CampaignConfig, trials int, seed uint64,
	path string, _ ckptOpts, ob *simObs) error {

	jobs := sim.CampaignJobs(nil, "", cfg, trials)

	// Warm-up builds the dynamic strategy's coefficient table outside the
	// timed region so every cell measures pure simulation throughput.
	reskit.MonteCarloCampaign(cfg, 1, seed, 1)

	snap := benchkit.NewSnapshot()
	rows := make([]benchkit.Result, 0, len(benchWorkerSweep))
	aggs := make([]reskit.CampaignAggregate, 0, len(benchWorkerSweep))
	var ns1 float64
	for i, w := range benchWorkerSweep {
		var (
			res    *engine.Result
			runErr error
		)
		tm := benchkit.MinOf(benchReps, int64(trials), func() {
			if runErr != nil {
				return
			}
			res, runErr = engine.Run(ctx, ckptOpts{}.spec(jobs, seed, w, out, ob, nil))
		})
		if runErr != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(out, "benchmark interrupted; no snapshot written\n")
				return nil
			}
			return runErr
		}
		agg, err := sim.MergeCampaignPayloads(res.Payloads)
		if err != nil {
			return err
		}
		aggs = append(aggs, agg)

		row := tm.Result("campaign", w)
		if i == 0 {
			ns1 = tm.NsPerTrial
		} else if tm.NsPerTrial > 0 {
			row.SpeedupVs1Worker = ns1 / tm.NsPerTrial
		}
		row.Metrics = engineMetrics(ob)
		if row.Metrics == nil {
			row.Metrics = make(map[string]float64, 2)
		}
		row.Metrics["campaign.mean_reservations"] = agg.Reservations
		row.Metrics["campaign.mean_utilization"] = agg.Utilization
		rows = append(rows, row)
		fmt.Fprintf(out, "campaign w=%d: %.1f ns/trial (min of %d), %.0f trials/s\n",
			w, tm.NsPerTrial, tm.Reps, tm.TrialsPerSec)
	}

	identical := true
	for _, a := range aggs[1:] {
		if a != aggs[0] {
			identical = false
		}
	}
	for i := range rows {
		flag := identical
		rows[i].BitIdenticalAcrossWorkers = &flag
	}
	snap.Results = rows

	if err := snap.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "bit-identical across workers %v -> %s\n", identical, path)
	return nil
}
