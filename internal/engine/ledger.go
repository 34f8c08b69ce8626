package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"reskit/internal/ckpt"
	"reskit/internal/obs"
)

// LedgerSpec identifies a fixed job grid and its durable layer: the part
// of a run's description the ledger needs, whichever side executes the
// jobs.
type LedgerSpec struct {
	NumJobs     int
	Seed        uint64
	Fingerprint uint64
	Checkpoint  Checkpoint

	// Check, when set, validates each restored payload before the
	// ledger trusts it (see Spec.Check).
	Check func(job int, payload []byte) error
	// JobName labels a job in restore errors.
	JobName func(job int) string

	Log io.Writer     // resume fallbacks and checkpoint warnings (nil discards)
	Reg *obs.Registry // binds the snapshot writer's "ckpt.*" instruments
}

// Ledger keeps the books of one fixed job grid: a payload slot per job,
// the restored and fresh counts, the jobs given up under keep-going,
// and the durable snapshot. Run's worker pool and the distributed
// coordinator (internal/distrun) both keep their books in one, so
// restore validation, keep-going assembly and the final flush follow one
// contract wherever the jobs execute — and either side resumes the
// other's snapshot file.
//
// Record, Fail and Unfail for distinct jobs may run concurrently; calls
// for the same job, and Close, must be serialized by the caller.
type Ledger struct {
	payloads [][]byte
	failed   []*JobError // per job; nil unless given up
	restored int
	fresh    atomic.Int64
	nFailed  atomic.Int64
	writer   *ckpt.Writer
	path     string
	logw     io.Writer
}

// OpenLedger opens the ledger of a run. With Checkpoint.Path set it
// binds the snapshot writer and, under Checkpoint.Resume, restores every
// job of the newest usable snapshot generation — the head, or the
// rotated previous generation when the head is missing, corrupt, or
// belongs to a different run. A restored payload failing Check aborts
// with an error: it passed the snapshot CRC, so the snapshot belongs to
// an incompatible build, and silently re-running the job could mask
// real corruption.
func OpenLedger(spec LedgerSpec) (*Ledger, error) {
	n := spec.NumJobs
	l := &Ledger{
		payloads: make([][]byte, n),
		failed:   make([]*JobError, n),
		path:     spec.Checkpoint.Path,
		logw:     spec.Log,
	}
	if l.logw == nil {
		l.logw = io.Discard
	}
	if l.path == "" {
		return l, nil
	}
	st := ckpt.New(ckpt.KindJobs, spec.Fingerprint, spec.Seed, int64(n), 1)
	if spec.Checkpoint.Resume {
		check := func(s *ckpt.State) error { return s.Check(ckpt.KindJobs, spec.Fingerprint, spec.Seed, int64(n), 1) }
		describe := func(s *ckpt.State) string { return fmt.Sprintf("%d/%d jobs", s.Done(), s.NumBlocks) }
		if loaded := loadResumable(l.logw, l.path, check, describe); loaded != nil {
			st = loaded
		}
	}
	l.writer = ckpt.NewWriter(l.path, spec.Checkpoint.Interval, st)
	l.writer.Instrument(spec.Reg)
	l.writer.LogTo(l.logw)
	for i := 0; i < n; i++ {
		payload := l.writer.Restore(i)
		if payload == nil {
			continue
		}
		if spec.Check != nil {
			if err := spec.Check(i, payload); err != nil {
				return nil, fmt.Errorf("restoring job %d (%s): %w", i, spec.JobName(i), err)
			}
		}
		l.payloads[i] = payload
		l.restored++
	}
	return l, nil
}

// Recorded reports whether job i has a payload: restored, or recorded
// by this run.
func (l *Ledger) Recorded(i int) bool { return l.payloads[i] != nil }

// Restored returns the number of jobs restored from the snapshot.
func (l *Ledger) Restored() int { return l.restored }

// Done returns the number of completed jobs, restored ones included.
func (l *Ledger) Done() int { return l.restored + int(l.fresh.Load()) }

// Failed returns the number of jobs currently given up.
func (l *Ledger) Failed() int { return int(l.nFailed.Load()) }

// Record books job i's fresh payload and commits it to the snapshot.
func (l *Ledger) Record(i int, payload []byte) {
	l.payloads[i] = payload
	l.fresh.Add(1)
	if l.writer != nil {
		l.writer.Commit(i, payload)
	}
}

// Fail gives up job je.Job under keep-going: its slot stays nil and it
// stays out of the snapshot, so a later resume retries exactly it.
func (l *Ledger) Fail(je *JobError) {
	l.failed[je.Job] = je
	l.nFailed.Add(1)
}

// Unfail withdraws the give-up of job i, if any (a late success
// arrived).
func (l *Ledger) Unfail(i int) {
	if l.failed[i] != nil {
		l.failed[i] = nil
		l.nFailed.Add(-1)
	}
}

// Close settles the run. It lists the given-up jobs in job order and,
// when runErr is nil, joins them into the run error (a degraded
// keep-going run). It flushes the final snapshot on every path —
// interrupted, degraded, even failed — because whatever jobs did commit
// are worth keeping, and joins a SnapshotError when the flush fails, so
// an exit advertising a resumable state cannot be hiding a dead disk.
// Once every job completed cleanly the snapshot generations are
// removed. The returned error is the settled run error, or ctx.Err()
// when there is none.
func (l *Ledger) Close(ctx context.Context, runErr error) (*Result, error) {
	res := &Result{Payloads: l.payloads, Restored: l.restored, Fresh: int(l.fresh.Load())}
	for _, je := range l.failed {
		if je != nil {
			res.Failed = append(res.Failed, je)
		}
	}
	if len(res.Failed) > 0 && runErr == nil {
		errs := make([]error, len(res.Failed))
		for i, fe := range res.Failed {
			errs[i] = fe
		}
		runErr = errors.Join(errs...)
	}
	runErr = settleSnapshot(ctx, l.writer, l.path, l.logw, runErr, res.Done() == res.Total())
	if runErr != nil {
		return res, runErr
	}
	return res, ctx.Err()
}

// settleSnapshot flushes the final snapshot of a run (a nil writer is a
// no-op), joining a SnapshotError into runErr when the flush fails, and
// removes the snapshot generations when the run reached its natural end
// cleanly: they have served their purpose, and leaving them around would
// only invite a stale resume later.
func settleSnapshot(ctx context.Context, w *ckpt.Writer, path string, logw io.Writer, runErr error, complete bool) error {
	if w == nil {
		return runErr
	}
	if ferr := w.Flush(); ferr != nil {
		serr := &SnapshotError{Err: ferr}
		if runErr == nil {
			runErr = serr
		} else {
			runErr = errors.Join(runErr, serr)
		}
	}
	if runErr == nil && ctx.Err() == nil && complete {
		if rerr := ckpt.RemoveGenerations(path); rerr != nil {
			fmt.Fprintf(logw, "checkpoint: completed but could not remove %s: %v\n", path, rerr)
		}
	}
	return runErr
}

// loadResumable returns the newest usable snapshot generation at path —
// the head, or the rotated previous generation when the head is
// missing, corrupt, or fails check — logging every fallback and, via
// describe, what it restores. nil means no generation is usable and the
// run starts fresh.
func loadResumable(logw io.Writer, path string, check func(*ckpt.State) error, describe func(*ckpt.State) string) *ckpt.State {
	for _, p := range []string{path, ckpt.PrevGeneration(path)} {
		loaded, lerr := ckpt.Load(p)
		switch {
		case errors.Is(lerr, os.ErrNotExist):
			continue
		case lerr != nil:
			fmt.Fprintf(logw, "resume: snapshot unusable at %s (%v)\n", p, lerr)
			continue
		}
		if cerr := check(loaded); cerr != nil {
			fmt.Fprintf(logw, "resume: snapshot at %s does not match this run (%v)\n", p, cerr)
			continue
		}
		fmt.Fprintf(logw, "resume: restoring %s from %s\n", describe(loaded), p)
		return loaded
	}
	fmt.Fprintf(logw, "resume: no usable snapshot at %s; starting fresh\n", path)
	return nil
}
