// Package engine is the single execution path of the toolchain: every
// Monte-Carlo entry point of internal/sim, every experiment mode of the
// CLIs, and every figure runs as a list of deterministic Jobs (one
// Monte-Carlo block, one sweep cell, one figure), and the engine owns
// everything around them — worker sharding, per-job rng substreams,
// cooperative cancellation with a graceful drain, durable
// snapshot/restore at job granularity (internal/ckpt), atomic artifact
// writing (internal/atomicio), and obs instrumentation.
//
// The determinism contract: a Job must depend only on the spec
// configuration and the rng substream it is handed, so its payload
// bytes are a pure function of (config, seed, stream). Payloads are
// merged by the caller in job order, which makes the final result
// bit-identical for any worker count — and makes a completed job a
// resumable unit: restoring committed payloads from a snapshot and
// recomputing only the missing jobs reproduces an uninterrupted run
// exactly. The books of a fixed grid (payloads, restores, keep-going
// failures, the final flush) live in a Ledger, which the distributed
// coordinator (internal/distrun) keeps too.
//
// Run executes a fixed job grid. RunStream generalizes it to a lazy,
// possibly unbounded JobSource drained into an ordered StreamSink —
// same worker pool, same attempt loop, same failure policy — with the
// commit frontier persisted as an open-ended snapshot (ckpt.KindStream)
// instead of a per-job payload map. See stream.go for the ordering and
// determinism argument.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"reskit/internal/atomicio"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

// Artifact is one output file produced by a job. The engine writes it
// via write-temp-fsync-rename after the job returns, so a crash can
// never leave a truncated artifact at the destination path.
type Artifact struct {
	Path string
	Data []byte
	Perm os.FileMode // 0 means 0o644
}

// JobResult carries a job's outputs back to the engine: an opaque
// payload (persisted in snapshots, merged by the caller in job order)
// and any artifacts to write atomically.
type JobResult struct {
	Payload   []byte
	Artifacts []Artifact
}

// Job is one deterministic unit of a run.
type Job struct {
	// Name labels the job in errors and progress ("mtbf=50/block3").
	Name string
	// Stream selects the rng substream: Run receives
	// rng.NewStream(spec.Seed, Stream). Distinct jobs may share a
	// stream value (e.g. block b of every strategy in a comparison
	// draws stream b, exactly as a standalone run of that strategy
	// would) — determinism only requires that the mapping is fixed.
	Stream uint64
	// Run executes the job. It must return ctx.Err() when cancelled
	// mid-job: the engine treats context errors as interruption (the
	// job is simply not recorded and can be re-run on resume), and any
	// other error as a run-aborting failure.
	Run func(ctx context.Context, src *rng.Source) (JobResult, error)
}

// Checkpoint configures durable run state.
type Checkpoint struct {
	Path     string        // snapshot file ("" disables the layer)
	Interval time.Duration // min interval between snapshots (<= 0: 10s)
	Resume   bool          // restore completed jobs from Path first
}

// Spec describes a run: the job list, the reproducibility contract
// (seed and config fingerprint), and the operational knobs.
type Spec struct {
	Jobs        []Job
	Seed        uint64
	Fingerprint uint64 // hash of every configuration facet shaping payloads
	Workers     int    // parallel workers (<= 0: all CPUs)

	Checkpoint Checkpoint

	// Failure is the failure policy: per-job retry budgets with
	// deterministic backoff+jitter, per-attempt deadlines, and the
	// keep-going degraded mode. The zero value keeps the historical
	// fail-fast behavior at zero cost.
	Failure Failure

	// Check, when set, validates each restored payload before the run
	// trusts it. A failure aborts the run with an error: a payload that
	// passed the snapshot CRC but does not parse means the snapshot
	// belongs to an incompatible build, and silently re-running the job
	// could mask real corruption.
	Check func(job int, payload []byte) error

	// Log receives resume fallbacks and checkpoint warnings (nil
	// discards them).
	Log io.Writer

	// Reg, when non-nil, binds the engine's instruments — the
	// "engine.jobs_total" and "engine.jobs_per_sec" gauges, the
	// "engine.jobs_done" and "engine.jobs_restored" counters, the
	// "engine.ns_per_job" quantile sketch (p50/p90/p99 of per-job wall
	// time) — plus the checkpoint writer's "ckpt.*" set. These are the
	// same numbers -metrics and -benchjson report: one source of truth
	// for per-mode throughput.
	Reg *obs.Registry

	// Progress, when non-nil, is ticked once per job; restored jobs
	// tick immediately on resume.
	Progress *obs.Progress
}

// Result reports a run.
type Result struct {
	// Payloads holds one entry per job, in job order; nil marks a job
	// that did not run (interrupted or failed before completing).
	Payloads [][]byte
	Restored int // jobs restored from the snapshot
	Fresh    int // jobs completed by this run

	// Failed lists the jobs a keep-going run gave up on, in job order:
	// their payload slots are nil, they are absent from the snapshot,
	// and a later resume retries exactly them. Empty unless
	// Failure.KeepGoing was set and jobs exhausted their retry budget.
	Failed []*JobError
}

// Done returns the number of jobs with a recorded payload.
func (r *Result) Done() int { return r.Restored + r.Fresh }

// Total returns the number of jobs in the spec.
func (r *Result) Total() int { return len(r.Payloads) }

// Run executes the spec: it restores completed jobs from the snapshot
// (validating them first, falling back to the previous snapshot
// generation when the head is unusable), dispatches the remaining jobs
// to a worker pool with one rng substream each, retries failing
// attempts within the spec's Failure policy, commits every completed
// payload, writes artifacts atomically, and on cancellation drains
// workers at the next job boundary. A final snapshot is flushed on
// every path — success, interruption, failure — so completed work is
// never discarded. The returned error is ctx.Err() after an
// interruption — the partial Result is valid and the snapshot resumable
// — a joined multi-error of JobError values after a degraded keep-going
// run, a SnapshotError when the final snapshot could not be persisted,
// or the first real failure (job error past its retry budget, unusable
// restored payload, artifact write error).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	n := len(spec.Jobs)
	if err := spec.Failure.validate(); err != nil {
		return &Result{Payloads: make([][]byte, n)}, err
	}
	if n == 0 {
		return &Result{Payloads: make([][]byte, n)}, ctx.Err()
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	spec.Reg.Gauge("engine.jobs_total").Set(float64(n))
	doneCtr := spec.Reg.Counter("engine.jobs_done")

	led, err := OpenLedger(LedgerSpec{
		NumJobs:     n,
		Seed:        spec.Seed,
		Fingerprint: spec.Fingerprint,
		Checkpoint:  spec.Checkpoint,
		Check:       spec.Check,
		JobName:     func(i int) string { return spec.Jobs[i].Name },
		Log:         spec.Log,
		Reg:         spec.Reg,
	})
	if err != nil {
		return &Result{Payloads: make([][]byte, n)}, fmt.Errorf("engine: %w", err)
	}
	if spec.Checkpoint.Path != "" {
		spec.Reg.Counter("engine.jobs_restored").Add(int64(led.Restored()))
	}
	spec.Progress.Add(int64(led.Restored()))

	// A real job failure cancels the run; the first one wins. Context
	// errors are interruption, not failure — unless the job invented
	// one while the run context is still live, which would otherwise
	// silently drop the job.
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failOnce sync.Once
		jobErr   error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			jobErr = err
			cancel()
		})
	}

	// The executor owns the per-attempt machinery (substream reinit,
	// deadlines, retry/backoff, the ns_per_job sketch) shared with the
	// streaming runner; the timing calls are skipped entirely when
	// spec.Reg is nil so the uninstrumented path stays clock-free.
	ex := newExecutor(spec.Seed, spec.Failure, spec.Reg)
	runStart := time.Now()

	pol := spec.Failure
	failedCtr := spec.Reg.Counter("engine.jobs_failed")

	// Workers pull job indices off a shared counter, in job order, so
	// no goroutine hands jobs over; once the run is cancelled they stop
	// pulling and drain at the next job boundary.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Source per worker, reinitialized per job (and per
			// attempt) — state identical to a fresh NewStream, with no
			// per-job allocation. jit is backoff-jitter scratch; it
			// never touches the job substream.
			var ws workerSource
			var jit rng.Source
			for jobCtx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if led.Recorded(i) {
					continue // restored from the snapshot
				}
				job := spec.Jobs[i]
				jr, attempts, verdict, jerr := ex.runJob(jobCtx, i, &job, &ws.src, &jit)
				switch verdict {
				case jobDrained:
					return // drained cleanly at a job boundary
				case jobFailed:
					if pol.KeepGoing {
						// The payload slot stays nil; the run keeps going.
						failedCtr.Inc()
						led.Fail(&JobError{Job: i, Name: job.Name, Attempts: attempts, Err: jerr})
						continue
					}
					fail(wrapJobErr(i, job.Name, attempts, jerr))
					return
				case jobFabricated:
					// Never kept-going: a fabricated context error is a
					// programming bug, not a transient fault.
					fail(wrapJobErr(i, job.Name, attempts, jerr))
					return
				}
				led.Record(i, jr.Payload) // distinct index per job: no races
				doneCtr.Inc()
				spec.Progress.Add(1)
			}
		}()
	}
	wg.Wait()
	if spec.Reg != nil {
		if elapsed := time.Since(runStart).Seconds(); elapsed > 0 {
			spec.Reg.Gauge("engine.jobs_per_sec").Set(float64(led.Done()-led.Restored()) / elapsed)
		}
	}
	return led.Close(ctx, jobErr)
}

// runAttempt executes one attempt of a job under the per-attempt
// deadline, including its artifact writes — an artifact that fails to
// land is a failed attempt: re-running the job rewrites it, and
// atomicio guarantees no partial file ever reaches the destination. On
// success the result is stored in *out. timedOut reports an attempt cut
// short by its own deadline while the run context was still live — the
// retryable flavor of context error.
func runAttempt(ctx context.Context, job *Job, src *rng.Source, timeout time.Duration, out *JobResult) (err error, timedOut bool) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	jr, err := job.Run(actx, src)
	if err == nil {
		if aerr := writeArtifacts(jr.Artifacts); aerr != nil {
			err = aerr
		}
	}
	if err == nil {
		*out = jr
		return nil, false
	}
	if timeout > 0 && isContextErr(err) {
		timedOut = errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil
	}
	return err, timedOut
}

// sleepBackoff waits the policy's deterministic jittered delay before
// retry `attempt` of job `job`, returning false when the run was
// cancelled mid-wait (the worker should drain, leaving the job
// unrecorded and resumable).
func sleepBackoff(ctx context.Context, pol Failure, seed uint64, job, attempt int, jit *rng.Source) bool {
	d := pol.backoff(seed, job, attempt, jit)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// isContextErr classifies cancellation and deadline errors.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeArtifacts persists a job's artifacts, each atomically.
func writeArtifacts(arts []Artifact) error {
	for _, a := range arts {
		perm := a.Perm
		if perm == 0 {
			perm = 0o644
		}
		if err := atomicio.WriteFile(a.Path, a.Data, perm); err != nil {
			return fmt.Errorf("artifact %s: %w", a.Path, err)
		}
	}
	return nil
}
