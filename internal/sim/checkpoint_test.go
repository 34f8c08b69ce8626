package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"reskit/internal/ckpt"
	"reskit/internal/core"
	"reskit/internal/engine"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// killAfter wraps jobs so the run is cancelled as soon as n of them have
// completed — a kill at an arbitrary block boundary. The completing job
// still returns its payload, so the engine commits it.
func killAfter(jobs []engine.Job, n int64, cancel context.CancelFunc) []engine.Job {
	var done atomic.Int64
	out := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		run := j.Run
		j.Run = func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			jr, err := run(ctx, src)
			if err == nil && done.Add(1) == n {
				cancel()
			}
			return jr, err
		}
		out[i] = j
	}
	return out
}

// runSnapshotted runs jobs on the engine with a resumable snapshot at
// path, restoring whatever the snapshot already holds.
func runSnapshotted(ctx context.Context, jobs []engine.Job, seed uint64, workers int, path string,
	check func(int, []byte) error) (*engine.Result, error) {

	return engine.Run(ctx, engine.Spec{
		Jobs:       jobs,
		Seed:       seed,
		Workers:    workers,
		Checkpoint: engine.Checkpoint{Path: path, Resume: true},
		Check:      check,
	})
}

// copySnapshot duplicates the snapshot at src into a fresh file, so one
// interrupted run can be resumed several times (a completed resume
// removes its snapshot).
func copySnapshot(t *testing.T, src string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "copy.ckpt")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func ckptCampaignConfig() CampaignConfig {
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	return CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 150,
	}
}

func checkMC(_ int, data []byte) error       { return CheckMonteCarloPayload(data) }
func checkCampaign(_ int, data []byte) error { return CheckCampaignPayload(data) }

// TestMonteCarloKillAndResumeBitIdentical is the acceptance property of
// the durable layer for the per-reservation grid: interrupt at an
// arbitrary block boundary, resume from the snapshot, and the merged
// aggregate is bit-identical to an uninterrupted MonteCarlo — for any
// worker count on either side of the interruption.
func TestMonteCarloKillAndResumeBitIdentical(t *testing.T) {
	cfg := fig8Config(strategy.NewStatic(4))
	const trials = 5*mcBlockSize + 123 // 6 blocks, last one ragged
	const seed = 11
	want := MonteCarlo(cfg, trials, seed, 0)
	jobs := MonteCarloJobs(nil, "", cfg, trials, false)

	for _, workers := range []int{1, 4, 8} {
		for _, kill := range []int64{1, 3, 5} {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			res, err := runSnapshotted(ctx, killAfter(jobs, kill, cancel), seed, workers, path, checkMC)
			cancel()
			if res.Done() == len(jobs) {
				// The whole run finished before the cancel landed. The
				// cancel still keeps the snapshot, so the resume below
				// restores every block and must reproduce the reference.
				t.Logf("workers=%d kill=%d: run completed before interruption", workers, kill)
			} else if err == nil {
				t.Fatalf("workers=%d kill=%d: interrupted run reported no error with %d blocks", workers, kill, res.Done())
			}

			for _, resumeWorkers := range []int{1, 4, 8} {
				rpath := copySnapshot(t, path)
				got, err := runSnapshotted(context.Background(), jobs, seed, resumeWorkers, rpath, checkMC)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if got.Restored != res.Done() {
					t.Errorf("workers=%d kill=%d: restored %d blocks, want %d", workers, kill, got.Restored, res.Done())
				}
				agg, err := MergeMonteCarloPayloads(got.Payloads)
				if err != nil {
					t.Fatal(err)
				}
				if agg != want {
					t.Errorf("workers=%d kill=%d resumeWorkers=%d: resumed aggregate differs:\n got %+v\nwant %+v",
						workers, kill, resumeWorkers, agg, want)
				}
			}
		}
	}
}

// TestCampaignKillAndResumeBitIdentical is the same acceptance property
// for the campaign grid.
func TestCampaignKillAndResumeBitIdentical(t *testing.T) {
	cfg := ckptCampaignConfig()
	const trials = 4*campaignBlockSize + 7 // 5 blocks, last one ragged
	const seed = 23
	want := MonteCarloCampaign(cfg, trials, seed, 0)
	jobs := CampaignJobs(nil, "", cfg, trials)

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		_, _ = runSnapshotted(ctx, killAfter(jobs, 2, cancel), seed, workers, path, checkCampaign)
		cancel()

		res, err := runSnapshotted(context.Background(), jobs, seed, workers, path, checkCampaign)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		got, err := MergeCampaignPayloads(res.Payloads)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: resumed campaign aggregate differs:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestCheckpointedCompleteRunMatchesPlain checks the zero-interruption
// path: a snapshotted run from scratch computes every block, changes
// nothing about the result, and removes its snapshot on completion.
func TestCheckpointedCompleteRunMatchesPlain(t *testing.T) {
	cfg := fig8Config(strategy.NewStatic(4))
	const trials = 2*mcBlockSize + 10
	path := filepath.Join(t.TempDir(), "run.ckpt")
	res, err := runSnapshotted(context.Background(), MonteCarloJobs(nil, "", cfg, trials, false), 5, 0, path, checkMC)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeMonteCarloPayloads(res.Payloads)
	if err != nil {
		t.Fatal(err)
	}
	if want := MonteCarlo(cfg, trials, 5, 0); got != want {
		t.Errorf("snapshotted run differs from plain run:\n got %+v\nwant %+v", got, want)
	}
	if res.Fresh != 3 {
		t.Errorf("computed %d blocks, want 3", res.Fresh)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("snapshot left behind after a completed run (stat err = %v)", err)
	}
}

// TestRestoreRejectsMalformedPayload checks that a restored payload of
// the wrong shape aborts the run with a structured error naming the
// block, instead of panicking or silently producing wrong numbers.
func TestRestoreRejectsMalformedPayload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		jobs  []engine.Job
		block int
		bad   []byte
		check func(int, []byte) error
	}{
		{"montecarlo", MonteCarloJobs(nil, "", fig8Config(strategy.NewStatic(4)), mcBlockSize*2, false), 0,
			[]byte("not an aggregate"), checkMC},
		{"campaign", CampaignJobs(nil, "", ckptCampaignConfig(), campaignBlockSize*2), 1,
			make([]byte, campaignPartialWireSize-1), checkCampaign},
	} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		st := ckpt.New(ckpt.KindJobs, 0, 5, int64(len(tc.jobs)), 1)
		st.Blocks[tc.block] = tc.bad
		if err := st.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		_, err := runSnapshotted(context.Background(), tc.jobs, 5, 1, path, tc.check)
		want := fmt.Sprintf("restoring job %d (block%d)", tc.block, tc.block)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: malformed payload: err = %v, want a block-%d restore error", tc.name, err, tc.block)
		}
	}
}

// TestAggregateWireRoundTrip pins the bit-exactness of the block payload
// codecs themselves.
func TestAggregateWireRoundTrip(t *testing.T) {
	cfg := fig8Config(strategy.NewStatic(4))
	agg := MonteCarlo(cfg, 500, 3, 0)
	agg.FailedRuns, agg.RevokedRuns = 7, 1 // exercise the int tallies

	var got Aggregate
	if err := decodeAggregate(encodeAggregate(&agg), &got); err != nil {
		t.Fatal(err)
	}
	if got != agg {
		t.Errorf("aggregate round trip differs:\n got %+v\nwant %+v", got, agg)
	}
	if err := decodeAggregate(make([]byte, aggregateWireSize+1), &got); err == nil {
		t.Error("oversized aggregate payload accepted")
	}

	p := campaignPartial{res: 1.5, util: 0.25, lost: 3.75, ckptFaults: 2, crashes: 1, revoked: 4, completed: 30, trials: 32}
	var gp campaignPartial
	if err := decodeCampaignPartial(encodeCampaignPartial(&p), &gp); err != nil {
		t.Fatal(err)
	}
	if gp != p {
		t.Errorf("campaign partial round trip differs: got %+v, want %+v", gp, p)
	}
	bad := encodeCampaignPartial(&campaignPartial{completed: 5, trials: 3})
	if err := decodeCampaignPartial(bad, &gp); err == nil {
		t.Error("completed > trials accepted")
	}
}
