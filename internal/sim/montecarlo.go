package sim

import (
	"context"
	"runtime"

	"reskit/internal/rng"
	"reskit/internal/stats"
)

// Aggregate accumulates the distributions of the per-run metrics over a
// Monte-Carlo experiment.
type Aggregate struct {
	Saved       stats.Summary // committed work per reservation
	Lost        stats.Summary // lost work per reservation
	Tasks       stats.Summary // tasks completed per reservation
	Checkpoints stats.Summary // successful checkpoints per reservation
	Failures    stats.Summary // fail-stop errors per reservation
	CkptFaults  stats.Summary // failed checkpoint commits per reservation (injected faults)
	TimeUsed    stats.Summary // machine time consumed per reservation
	FailedRuns  int64         // runs with at least one failed checkpoint
	RevokedRuns int64         // runs whose reservation was revoked early
	ZeroRuns    int64         // runs that saved no work at all
	Trials      int64
}

// merge folds another aggregate into a.
func (a *Aggregate) merge(o Aggregate) {
	a.Saved.Merge(o.Saved)
	a.Lost.Merge(o.Lost)
	a.Tasks.Merge(o.Tasks)
	a.Checkpoints.Merge(o.Checkpoints)
	a.Failures.Merge(o.Failures)
	a.CkptFaults.Merge(o.CkptFaults)
	a.TimeUsed.Merge(o.TimeUsed)
	a.FailedRuns += o.FailedRuns
	a.RevokedRuns += o.RevokedRuns
	a.ZeroRuns += o.ZeroRuns
	a.Trials += o.Trials
}

// add folds one run into the aggregate.
func (a *Aggregate) add(r RunResult) {
	a.Saved.Add(r.Saved)
	a.Lost.Add(r.Lost)
	a.Tasks.Add(float64(r.Tasks))
	a.Checkpoints.Add(float64(r.Checkpoints))
	a.Failures.Add(float64(r.Failures))
	a.CkptFaults.Add(float64(r.CkptFaults))
	a.TimeUsed.Add(r.TimeUsed)
	if r.FailedCkpts > 0 {
		a.FailedRuns++
	}
	if r.Revoked {
		a.RevokedRuns++
	}
	if r.Saved == 0 {
		a.ZeroRuns++
	}
	a.Trials++
}

// Workers returns a sensible default worker count for Monte-Carlo runs.
// runtime.GOMAXPROCS(0) is documented to be at least 1, so no floor is
// needed.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// mcBlockSize is the number of trials bound to one rng substream. Work
// is partitioned into fixed blocks rather than per-worker shares so the
// result is bit-identical for any worker count: block b always uses
// stream b, and block aggregates are merged in block order.
const mcBlockSize = 2048

// cancelPoll is how many trials a block loop runs between checks of its
// cancellation channel (a power of two). A non-blocking select before
// every trial costs about a tenth of a cheap trial's time.
const cancelPoll = 64

// MonteCarlo runs `trials` independent reservations of cfg on the job
// engine across `workers` goroutines (Workers() when workers <= 0) and
// merges the results. Trials are partitioned into fixed-size blocks,
// each drawing from its own rng substream of seed, and block results
// are reduced in deterministic order — the aggregate depends only on
// (cfg, trials, seed), never on the worker count or goroutine
// scheduling.
func MonteCarlo(cfg Config, trials int, seed uint64, workers int) Aggregate {
	agg, _ := MonteCarloContext(context.Background(), cfg, trials, seed, workers)
	return agg
}

// MonteCarloContext is MonteCarlo with cooperative cancellation: when ctx
// is cancelled (or its deadline passes), workers stop within a few dozen
// trials, the interrupted blocks are discarded whole, and the call
// returns the well-formed aggregate of every completed block alongside
// ctx.Err(). Without cancellation the result is bit-identical to
// MonteCarlo and the error is nil.
func MonteCarloContext(ctx context.Context, cfg Config, trials int, seed uint64, workers int) (Aggregate, error) {
	cfg.validate()
	return runBlocks(ctx, MonteCarloJobs(nil, "", cfg, trials, false), seed, workers, MergeMonteCarloPayloads)
}

// MonteCarloOracle is MonteCarlo with the clairvoyant scheduler.
func MonteCarloOracle(cfg Config, trials int, seed uint64, workers int) Aggregate {
	cfg.validate()
	agg, _ := runBlocks(context.Background(), MonteCarloJobs(nil, "", cfg, trials, true), seed, workers, MergeMonteCarloPayloads)
	return agg
}

// runMCBlock simulates the trials of block b ([b*mcBlockSize, ...)) on
// src and returns the block aggregate. cfg is received by value, so the
// per-trial index stamp for deterministic trace sampling never races
// other workers. complete is false when done fired mid-block; such a
// block must never be committed as durable state. done is polled every
// cancelPoll trials, not before each one.
func runMCBlock(cfg Config, trials, b int, src *rng.Source,
	run func(Config, *rng.Source) RunResult, done <-chan struct{}) (agg Aggregate, complete bool) {

	lo := b * mcBlockSize
	hi := lo + mcBlockSize
	if hi > trials {
		hi = trials
	}
	tracing := cfg.Obs != nil && cfg.Obs.Trace != nil
	for i := lo; i < hi; i++ {
		if (i-lo)&(cancelPoll-1) == 0 {
			select {
			case <-done:
				return agg, false
			default:
			}
		}
		if tracing {
			cfg.trial = int64(i)
		}
		rr := run(cfg, src)
		agg.add(rr)
		cfg.Obs.tickProgress(1)
		cfg.Obs.tickProgressWork(1, rr.Saved)
	}
	return agg, true
}
