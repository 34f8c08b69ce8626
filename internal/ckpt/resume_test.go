package ckpt_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/rng"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

func testCampaignConfig() sim.CampaignConfig {
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	ckptLaw := dist.Truncate(dist.NewNormal(5, 0.4), 0, math.Inf(1))
	dyn := core.NewDynamic(29, task, ckptLaw)
	return sim.CampaignConfig{
		Reservation: sim.Config{
			R:        29,
			Recovery: 1.5,
			Task:     task,
			Ckpt:     ckptLaw,
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 150,
	}
}

// killAfter wraps jobs so the run is cancelled as soon as n of them have
// completed — a kill at an arbitrary block boundary while the real
// on-disk snapshot machinery runs underneath.
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

// TestDiskKillAndResumeBitIdentical is the full acceptance loop through
// the disk on the engine path: run, kill at a block boundary (the
// engine flushes the final snapshot), load + validate the snapshot from
// disk, resume only the missing blocks, and require the final aggregate
// bit-identical to an uninterrupted run — across worker counts 1, 4 and
// 8 (run under -race in CI).
func TestDiskKillAndResumeBitIdentical(t *testing.T) {
	cfg := testCampaignConfig()
	const trials = 4*32 + 9 // 5 campaign blocks of 32, the last one ragged
	const seed = 77
	fp := ckpt.Fingerprint("test-campaign", "R=29", "totalwork=150")
	want := sim.MonteCarloCampaign(cfg, trials, seed, 0)
	jobs := sim.CampaignJobs(nil, "", cfg, trials)
	n := int64(len(jobs))
	check := func(_ int, data []byte) error { return sim.CheckCampaignPayload(data) }

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		spec := engine.Spec{
			Seed:        seed,
			Fingerprint: fp,
			Workers:     workers,
			Checkpoint:  engine.Checkpoint{Path: path, Interval: time.Nanosecond, Resume: true},
			Check:       check,
		}

		// Interrupted leg: snapshot on every commit (interval elapses
		// immediately), cancel after two completed blocks.
		ctx, cancel := context.WithCancel(context.Background())
		spec.Jobs = killAfter(jobs, 2, cancel)
		_, _ = engine.Run(ctx, spec)
		cancel()

		// The snapshot on disk is a valid image of this run.
		loaded, err := ckpt.Load(path)
		if err != nil {
			t.Fatalf("workers=%d: loading snapshot: %v", workers, err)
		}
		if err := loaded.Check(ckpt.KindJobs, fp, seed, n, 1); err != nil {
			t.Fatalf("workers=%d: snapshot mismatch: %v", workers, err)
		}
		if loaded.Done() == 0 {
			t.Fatalf("workers=%d: snapshot recorded no blocks", workers)
		}

		// Resume leg: only the missing blocks run.
		spec.Jobs = jobs
		res, err := engine.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if res.Restored != loaded.Done() {
			t.Errorf("workers=%d: restored %d blocks, snapshot holds %d", workers, res.Restored, loaded.Done())
		}
		got, err := sim.MergeCampaignPayloads(res.Payloads)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: resumed aggregate differs:\n got %+v\nwant %+v", workers, got, want)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("workers=%d: completed run left its snapshot behind (stat err = %v)", workers, err)
		}
	}
}

// TestResumeRejectsForeignSnapshot checks the config-fingerprint gate:
// a snapshot of a different configuration must be refused with a
// structured mismatch error before any block is trusted.
func TestResumeRejectsForeignSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := ckpt.New(ckpt.KindJobs, ckpt.Fingerprint("totalwork=150"), 1, 5, 1)
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	err = loaded.Check(ckpt.KindJobs, ckpt.Fingerprint("totalwork=500"), 1, 5, 1)
	if !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("foreign snapshot: err = %v, want ErrMismatch", err)
	}
}

// TestLoadCorruptSnapshotFile checks the disk path end to end: a
// truncated snapshot file yields a structured error, never a panic.
func TestLoadCorruptSnapshotFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := ckpt.New(ckpt.KindJobs, 9, 1, 2, 1)
	st.Blocks[0] = make([]byte, 312)
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncated file: err = %v, want ErrCorrupt", err)
	}
}
