package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

// StreamSink folds committed payloads into a running aggregate, in
// strict index order. The engine calls every method from a single
// goroutine.
//
// Because Commit(i) is always preceded by Commit(0..i-1), the sink
// state after job i is a pure function of the payload prefix — and
// payloads are pure functions of (config, seed, stream) — so both the
// stop decision and the frontier snapshots are independent of the
// worker count and of how out-of-order the results arrived.
type StreamSink interface {
	// Commit folds job i's payload. Returning stop=true asks the engine
	// to finish the run at this frontier (results of jobs beyond i are
	// discarded, never folded); an error aborts the run.
	Commit(i int, payload []byte) (stop bool, err error)
	// State returns the serialized sink at the current frontier, for
	// frontier snapshots. It must capture everything Commit mutates:
	// Restore(State()) followed by the same Commit sequence must be
	// bit-identical to never having been interrupted.
	State() ([]byte, error)
	// Restore resets the sink to a state previously returned by State.
	Restore(state []byte) error
}

// StreamSpec describes a streaming run: a lazy job source drained into
// an ordered sink by the same bounded worker pool, attempt loop and
// failure policy as the fixed-grid Run.
type StreamSpec struct {
	Source JobSource
	Sink   StreamSink

	Seed        uint64
	Fingerprint uint64 // hash of every configuration facet shaping payloads
	Workers     int    // parallel workers (<= 0: all CPUs)

	// MaxJobs caps the number of jobs committed (0: unbounded). The cap
	// counts from job 0 — restored jobs included — so a resumed run
	// stops at the same frontier an uninterrupted one would.
	MaxJobs int

	// Window bounds how far dispatch may run ahead of the commit
	// frontier: at most Window job indices are in flight or parked
	// out-of-order at any moment, which bounds memory however unbounded
	// the source is (0: 4x workers).
	Window int

	Checkpoint Checkpoint

	// Failure is the per-job retry policy. KeepGoing is rejected up
	// front: a permanently failed job would block the commit frontier
	// forever.
	Failure Failure

	// Log receives resume fallbacks and checkpoint warnings (nil
	// discards them).
	Log io.Writer

	// Reg, when non-nil, binds the engine instruments plus the
	// streaming extras: the "engine.stream_frontier" gauge tracks the
	// commit frontier live.
	Reg *obs.Registry

	// Progress, when non-nil, is ticked once per committed job;
	// restored jobs tick immediately on resume.
	Progress *obs.Progress
}

// StreamResult reports a streaming run.
type StreamResult struct {
	// Committed is the final frontier: jobs [0, Committed) are folded
	// into the sink.
	Committed int
	// Restored counts the committed jobs replayed from the frontier
	// snapshot rather than executed.
	Restored int
	// Stopped reports that the sink requested the stop.
	Stopped bool
	// Exhausted reports that the source ran dry (or MaxJobs was hit)
	// before the sink asked to stop.
	Exhausted bool
}

// Fresh returns the number of jobs this run executed and committed.
func (r *StreamResult) Fresh() int { return r.Committed - r.Restored }

// RunStream drains the source into the sink: jobs are dispatched to the
// worker pool as indices stream off the source, results are parked
// until their index is next at the commit frontier, and the sink folds
// them in strict order — evaluating its stop rule after every fold.
// The frontier (plus the sink state) is snapshotted on the checkpoint
// interval, so a killed run resumes by restoring the sink, replaying
// the source past the frontier, and continuing bit-identically. The
// returned error follows Run's contract: ctx.Err() after interruption
// (resumable), a SnapshotError when the final snapshot could not be
// persisted, or the first real failure.
func RunStream(ctx context.Context, spec StreamSpec) (*StreamResult, error) {
	res := &StreamResult{}
	if spec.Source == nil || spec.Sink == nil {
		return res, errors.New("engine: stream spec needs a source and a sink")
	}
	if err := spec.Failure.validate(); err != nil {
		return res, err
	}
	if spec.Failure.KeepGoing {
		return res, errors.New("engine: keep-going is incompatible with streaming (a permanently failed job would block the commit frontier forever)")
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := spec.Window
	if window <= 0 {
		window = 4 * workers
	}
	if window < workers {
		window = workers
	}
	logw := spec.Log
	if logw == nil {
		logw = io.Discard
	}
	doneCtr := spec.Reg.Counter("engine.jobs_done")
	frontierGauge := spec.Reg.Gauge("engine.stream_frontier")

	// Frontier snapshot: restore the sink state and fast-forward the
	// source past the committed prefix.
	var writer *ckpt.Writer
	frontier := 0
	if spec.Checkpoint.Path != "" {
		st := ckpt.NewStream(spec.Fingerprint, spec.Seed)
		if spec.Checkpoint.Resume {
			check := func(s *ckpt.State) error { return s.CheckStream(spec.Fingerprint, spec.Seed) }
			describe := func(s *ckpt.State) string { return fmt.Sprintf("stream frontier %d", s.Frontier()) }
			if loaded := loadResumable(logw, spec.Checkpoint.Path, check, describe); loaded != nil {
				if err := spec.Sink.Restore(loaded.StreamState()); err != nil {
					return res, fmt.Errorf("engine: restoring stream sink at frontier %d: %w", loaded.Frontier(), err)
				}
				frontier = int(loaded.Frontier())
				st = loaded
			}
		}
		writer = ckpt.NewWriter(spec.Checkpoint.Path, spec.Checkpoint.Interval, st)
		writer.Instrument(spec.Reg)
		writer.LogTo(logw)
		if frontier > 0 {
			// The source is deterministic, so jobs [0, frontier) are
			// exactly the ones the restored sink already folded: skip
			// them without executing.
			for i := 0; i < frontier; i++ {
				if _, ok := spec.Source.Next(); !ok {
					return res, fmt.Errorf("engine: stream source exhausted at job %d while replaying a frontier of %d", i, frontier)
				}
			}
			res.Restored = frontier
			res.Committed = frontier
			spec.Reg.Counter("engine.jobs_restored").Add(int64(frontier))
			frontierGauge.Set(float64(frontier))
			spec.Progress.Add(int64(frontier))
		}
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	ex := newExecutor(spec.Seed, spec.Failure, spec.Reg)
	runStart := time.Now()

	type dispatched struct {
		i   int
		job Job
	}
	type outcome struct {
		i        int
		name     string
		jr       JobResult
		verdict  jobVerdict
		attempts int
		err      error
	}
	// resCh holds every possible in-flight outcome (in-flight jobs never
	// exceed the window), so workers never block delivering one and the
	// coordinator can never deadlock against a full pool.
	jobsCh := make(chan dispatched)
	resCh := make(chan outcome, window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Source per worker, reinitialized per attempt; jit is
			// backoff-jitter scratch that never touches job substreams.
			var ws workerSource
			var jit rng.Source
			for d := range jobsCh {
				jr, attempts, verdict, jerr := ex.runJob(jobCtx, d.i, &d.job, &ws.src, &jit)
				resCh <- outcome{i: d.i, name: d.job.Name, jr: jr, verdict: verdict, attempts: attempts, err: jerr}
			}
		}()
	}

	// Single-goroutine coordinator: pulls jobs off the source, keeps at
	// most `window` indices between the commit frontier and the dispatch
	// head, and folds results into the sink in strict index order via
	// the pending park.
	var (
		next     = frontier // next index to dispatch
		inflight = 0
		pending  = make(map[int][]byte, window)
		stopped  = false
		jobErr   error
		fresh    = 0
	)
	fail := func(err error) {
		if jobErr == nil {
			jobErr = err
			cancel()
		}
	}
	// snapshot persists the frontier; the sink state is materialized
	// only when the writer would actually write (it must be re-encoded
	// at every frontier it is persisted at, unlike block payloads).
	snapshot := func(final bool) {
		if writer == nil || frontier == 0 {
			return
		}
		if !final && !writer.Due() {
			return
		}
		state, serr := spec.Sink.State()
		if serr != nil {
			fail(fmt.Errorf("engine: serializing stream sink at frontier %d: %w", frontier, serr))
			return
		}
		writer.CommitStream(int64(frontier), state)
	}
	commit := func(o *outcome) {
		pending[o.i] = o.jr.Payload
		// Fold the contiguous prefix. The stop rule is evaluated after
		// every fold, so the run stops at the exact frontier the sink
		// asked for, regardless of arrival order.
		for !stopped && jobErr == nil {
			payload, ok := pending[frontier]
			if !ok {
				break
			}
			delete(pending, frontier)
			stop, serr := spec.Sink.Commit(frontier, payload)
			if serr != nil {
				fail(fmt.Errorf("engine: stream sink rejected job %d: %w", frontier, serr))
				return
			}
			frontier++
			fresh++
			doneCtr.Inc()
			frontierGauge.Set(float64(frontier))
			spec.Progress.Add(1)
			if stop {
				stopped = true
				cancel() // abandon in-flight work; those results are discarded
				return
			}
			snapshot(false)
		}
	}
	handle := func(o *outcome) {
		inflight--
		switch o.verdict {
		case jobDrained:
			// Cancelled at a job boundary: unrecorded, resumable.
		case jobDone:
			if jobErr == nil && !stopped {
				commit(o)
			}
		default: // jobFailed, jobFabricated — streaming has no keep-going
			fail(wrapJobErr(o.i, o.name, o.attempts, o.err))
		}
	}

	exhausted := false
	var staged *dispatched
	for {
		if jobCtx.Err() != nil {
			staged = nil // never dispatch into a cancelled run
		}
		if staged == nil && !stopped && !exhausted && jobErr == nil && jobCtx.Err() == nil && next-frontier < window {
			if spec.MaxJobs > 0 && next >= spec.MaxJobs {
				exhausted = true
			} else if job, ok := spec.Source.Next(); ok {
				staged = &dispatched{i: next, job: job}
			} else {
				exhausted = true
			}
		}
		if staged != nil {
			select {
			case jobsCh <- *staged:
				staged = nil
				next++
				inflight++
			case o := <-resCh:
				handle(&o)
			case <-jobCtx.Done():
				// Loop around; the staged job is dropped above.
			}
			continue
		}
		if inflight == 0 {
			break
		}
		o := <-resCh
		handle(&o)
	}
	close(jobsCh)
	wg.Wait()

	res.Committed = frontier
	res.Stopped = stopped
	res.Exhausted = exhausted && !stopped && jobErr == nil && ctx.Err() == nil
	if spec.Reg != nil {
		if elapsed := time.Since(runStart).Seconds(); elapsed > 0 {
			spec.Reg.Gauge("engine.jobs_per_sec").Set(float64(fresh) / elapsed)
		}
	}

	// The final snapshot is flushed on every path — interrupted, stopped,
	// even failed — because the committed prefix is worth keeping.
	snapshot(true)
	jobErr = settleSnapshot(ctx, writer, spec.Checkpoint.Path, logw, jobErr, stopped || res.Exhausted)
	if jobErr != nil {
		return res, jobErr
	}
	return res, ctx.Err()
}
