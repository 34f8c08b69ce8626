package main

import (
	"context"
	"math"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/lawspec"
	"reskit/internal/rng"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

// The paper's analytic values for the canonical instance (R = 29,
// normal tasks and checkpoints): the static policy's E(n_opt) and the
// dynamic threshold W_int, both to three decimals.
const (
	paperENOpt = 20.638
	paperWInt  = 20.265
)

// workflowTrials is the size of the short workflow run checking the
// static policy against E(n_opt).
const workflowTrials = 40960

// checkPaperInstance checks the canonical instance against the paper:
// W_int from the dynamic problem, n_opt and E(n_opt) from the static
// one, and a short simulated workflow whose mean saved work under the
// static policy must lie within 4 CI95 of E(n_opt). Being a statistical
// check rather than a pinned aggregate, it survives deliberate changes
// of the random stream.
func checkPaperInstance(ctx context.Context, e *env) error {
	ck, err := lawspec.Parse(ckptLaw)
	if err != nil {
		return err
	}
	task, err := lawspec.Parse(taskNorm)
	if err != nil {
		return err
	}
	dyn, err := core.TryNewDynamic(paperR, task, ck)
	if err != nil {
		return err
	}
	wInt, err := dyn.Intersection()
	e.check("paper_w_int", err == nil && math.Abs(wInt-paperWInt) < 5e-4, "W_int = %.4f, paper %.3f", wInt, paperWInt)

	// The truncation at 0 removes no visible mass, so the static problem
	// uses the matching normal law, as simulate's workflow mode does.
	static, err := core.TryNewStatic(paperR, dist.NewNormal(task.Mean(), math.Sqrt(task.Variance())), ck)
	if err != nil {
		return err
	}
	sol := static.Optimize()
	e.check("paper_e_n_opt", sol.NOpt == 7 && math.Abs(sol.ENOpt-paperENOpt) < 5e-4,
		"n_opt = %d, E(n_opt) = %.4f, paper 7 and %.3f", sol.NOpt, sol.ENOpt, paperENOpt)

	pol, err := strategy.TryNewStatic(sol.NOpt)
	if err != nil {
		return err
	}
	cfg := sim.Config{R: paperR, Task: task, Ckpt: ck, Strategy: pol}
	trials := e.scaled(workflowTrials, 4096)
	jobs := make([]engine.Job, sim.NumMonteCarloBlocks(trials))
	for b := range jobs {
		b := b
		jobs[b] = engine.Job{Stream: uint64(b), Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			data, err := sim.MonteCarloBlockPayload(ctx, cfg, trials, b, false, src)
			return engine.JobResult{Payload: data}, err
		}}
	}
	res, err := engine.Run(ctx, engine.Spec{Jobs: jobs, Seed: e.opts.seed, Workers: workers})
	if err != nil {
		return err
	}
	agg, err := sim.MergeMonteCarloPayloads(res.Payloads)
	if err != nil {
		return err
	}
	mean, ci := agg.Saved.Mean(), agg.Saved.CI95()
	e.check("static_saved_vs_e_n_opt", math.Abs(mean-sol.ENOpt) <= 4*ci,
		"simulated E(saved) = %.4f ± %.4f (CI95, %d trials), E(n_opt) = %.4f", mean, ci, trials, sol.ENOpt)
	return nil
}
