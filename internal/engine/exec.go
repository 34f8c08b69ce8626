package engine

import (
	"context"
	"fmt"
	"time"

	"reskit/internal/obs"
	"reskit/internal/rng"
)

// jobVerdict classifies how one job left the attempt loop.
type jobVerdict int

const (
	// jobDone: the attempt succeeded and the result is valid.
	jobDone jobVerdict = iota
	// jobDrained: the run was cancelled at a job or backoff boundary;
	// the job is unrecorded and resumable.
	jobDrained
	// jobFailed: the retry budget is exhausted. Run's keep-going mode
	// may record it and continue; every other path aborts the run.
	jobFailed
	// jobFabricated: the job invented a context error while both the
	// run and its own deadline were live — a programming bug, not a
	// transient fault. Never retried, never kept-going.
	jobFabricated
)

// workerSource is one worker's job substream. Jobs take the source by
// pointer, so it lives on the heap, and it is written on every draw:
// the padding keeps two workers' sources off a shared cache line, which
// would otherwise bounce between cores on every variate.
type workerSource struct {
	_   [64]byte
	src rng.Source
	_   [64]byte
}

// executor bundles the per-run pieces every worker shares — the
// reproducibility contract (seed), the failure policy, and the attempt
// instruments — so the fixed-grid Run and the streaming RunStream drive
// jobs through one identical attempt loop.
type executor struct {
	seed       uint64
	pol        Failure
	nsPerJob   *obs.Quantiles
	retryCtr   *obs.Counter
	timeoutCtr *obs.Counter
}

// newExecutor binds an executor for the run's policy on reg (nil reg
// leaves the instruments disabled).
func newExecutor(seed uint64, pol Failure, reg *obs.Registry) *executor {
	return &executor{
		seed:       seed,
		pol:        pol,
		nsPerJob:   reg.Quantiles("engine.ns_per_job"),
		retryCtr:   reg.Counter("engine.job_retries"),
		timeoutCtr: reg.Counter("engine.job_timeouts"),
	}
}

// runJob drives one job to its policy verdict on a worker's scratch
// sources: every attempt restarts the job substream from scratch (so a
// retried job's payload is the same pure function of (seed, stream) as
// an undisturbed one), attempts run under the per-attempt deadline, and
// retries wait the deterministic jittered backoff. attempts is the
// attempt count at the verdict; err is the terminal job error for the
// failed verdicts.
func (e *executor) runJob(ctx context.Context, i int, job *Job, src, jit *rng.Source) (jr JobResult, attempts int, verdict jobVerdict, err error) {
	for attempt := 1; ; attempt++ {
		src.Reinit(e.seed, job.Stream)
		var jobStart time.Time
		if e.nsPerJob != nil {
			jobStart = time.Now()
		}
		jerr, timedOut := runAttempt(ctx, job, src, e.pol.JobTimeout, &jr)
		if e.nsPerJob != nil {
			e.nsPerJob.Observe(float64(time.Since(jobStart)))
		}
		if jerr == nil {
			return jr, attempt, jobDone, nil
		}
		if isContextErr(jerr) && ctx.Err() != nil {
			return jr, attempt, jobDrained, nil
		}
		if timedOut {
			e.timeoutCtr.Inc()
			jerr = fmt.Errorf("attempt deadline %v exceeded: %w", e.pol.JobTimeout, jerr)
		}
		fabricated := isContextErr(jerr) && !timedOut
		if !fabricated && attempt <= e.pol.Retries {
			e.retryCtr.Inc()
			if !sleepBackoff(ctx, e.pol, e.seed, i, attempt, jit) {
				return jr, attempt, jobDrained, nil
			}
			continue
		}
		if fabricated {
			return jr, attempt, jobFabricated, jerr
		}
		return jr, attempt, jobFailed, jerr
	}
}

// wrapJobErr renders a permanent job failure the way the engine reports
// it: the attempt count when retries were spent, then the job identity.
func wrapJobErr(i int, name string, attempts int, err error) error {
	if attempts > 1 {
		err = fmt.Errorf("after %d attempts: %w", attempts, err)
	}
	return fmt.Errorf("engine: job %d (%s): %w", i, name, err)
}
