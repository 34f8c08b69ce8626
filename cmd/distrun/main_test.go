package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reskit"
	"reskit/internal/ckpt"
	"reskit/internal/engine"
	"reskit/internal/lawspec"
	"reskit/internal/sim"
)

// campaignArgs is the shared flag set of the end-to-end test run —
// identical for coordinator and workers, as the protocol demands.
var campaignArgs = []string{
	"-R", "60", "-task", "exp:0.05", "-ckpt", "uniform:1,3",
	"-totalwork", "120", "-trials", "1280", "-seed", "7",
}

// campaignJobs builds the job grid of campaignArgs, as the CLI does.
func campaignJobs(t *testing.T) []engine.Job {
	t.Helper()
	law, err := lawspec.Parse("uniform:1,3")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildCampaign(60, 0, 120, "exp:0.05", "", law, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sim.CampaignJobs(nil, "", cfg, 1280)
}

// localAggregate computes the reference aggregate through the local
// engine, exactly as simulate's campaign mode would.
func localAggregate(t *testing.T) sim.CampaignAggregate {
	t.Helper()
	res, err := engine.Run(context.Background(), engine.Spec{Jobs: campaignJobs(t), Seed: 7})
	if err != nil {
		t.Fatalf("local reference: %v", err)
	}
	agg, err := sim.MergeCampaignPayloads(res.Payloads)
	if err != nil {
		t.Fatalf("local merge: %v", err)
	}
	return agg
}

// startCoordinator runs the CLI as a loopback coordinator with args
// (2s lease TTL, 20ms target lease) and returns the address it
// publishes once listening, its output, and its exit error.
func startCoordinator(t *testing.T, args ...string) (addr string, out *bytes.Buffer, done <-chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	coArgs := append(append([]string{}, args...), "-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-lease-ttl", "2s", "-target-lease", "20ms")
	out = &bytes.Buffer{}
	errc := make(chan error, 1)
	go func() { errc <- run(coArgs, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never published its address; output so far:\n%s", out.String())
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return addr, out, errc
}

// waitCoordinator waits for the coordinator to finish the run cleanly.
func waitCoordinator(t *testing.T, out *bytes.Buffer, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never finished; output:\n%s", out.String())
	}
}

// TestDistrunEndToEnd drives the real CLI: one coordinator (bound to a
// random port, address published through -addr-file), two workers, and
// a final aggregate that must match a local single-process run to the
// printed digit.
func TestDistrunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	addr, coOut, coErr := startCoordinator(t, append(append([]string{}, campaignArgs...),
		"-checkpoint", filepath.Join(dir, "run.ckpt"), "-checkpoint-interval", "10ms")...)

	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for w := range werrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wArgs := append([]string{}, campaignArgs...)
			wArgs = append(wArgs, "-worker", "http://"+addr, "-name", fmt.Sprintf("w%d", w), "-workers", "2")
			var wOut bytes.Buffer
			werrs[w] = run(wArgs, &wOut)
		}(w)
	}
	wg.Wait()
	for w, werr := range werrs {
		if werr != nil {
			t.Errorf("worker %d: %v", w, werr)
		}
	}
	waitCoordinator(t, coOut, coErr)

	// The printed aggregate must carry the local run's exact numbers.
	want := localAggregate(t)
	out := coOut.String()
	for what, v := range map[string]float64{
		"mean utilization": want.Utilization,
		"mean lost work":   want.LostWork,
	} {
		if !strings.Contains(out, fmt.Sprintf("%.4g", v)) {
			t.Errorf("coordinator output lacks the local run's %s %.4g:\n%s", what, v, out)
		}
	}
	if !strings.Contains(out, "all completed") {
		t.Errorf("coordinator output lacks the aggregate table:\n%s", out)
	}
	// A fully completed run retires its snapshot generations.
	if _, err := os.Stat(filepath.Join(dir, "run.ckpt")); !os.IsNotExist(err) {
		t.Errorf("completed run left its snapshot behind (stat err: %v)", err)
	}
}

// TestDistrunFaultSweepMatchesSimulate distributes a -faultsweep grid
// through the real CLI (coordinator plus one worker) and checks the
// printed per-row aggregates against a local engine run of the very job
// grid simulate -campaign -faultsweep builds — same sweep configs, same
// block payload functions, same row-major merge — so the two CLIs are
// pinned to bit-identical sweep results.
func TestDistrunFaultSweepMatchesSimulate(t *testing.T) {
	sweepArgs := append([]string{}, campaignArgs...)
	sweepArgs = append(sweepArgs, "-faultsweep", "30,60")
	addr, coOut, coErr := startCoordinator(t, sweepArgs...)
	wArgs := append([]string{}, sweepArgs...)
	wArgs = append(wArgs, "-worker", "http://"+addr, "-workers", "2")
	var wOut bytes.Buffer
	if werr := run(wArgs, &wOut); werr != nil {
		t.Errorf("worker: %v", werr)
	}
	waitCoordinator(t, coOut, coErr)

	// Local reference: the identical grid simulate's runFaultSweep lays
	// out, run through the in-process engine.
	law, err := lawspec.Parse("uniform:1,3")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildCampaign(60, 0, 120, "exp:0.05", "", law, nil)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 1280
	mtbfs, cfgs, err := sim.FaultSweepConfigs(cfg, "30,60")
	if err != nil {
		t.Fatal(err)
	}
	n := sim.NumCampaignBlocks(trials)
	res, err := engine.Run(context.Background(), engine.Spec{Jobs: sim.FaultSweepJobs(mtbfs, cfgs, trials), Seed: 7})
	if err != nil {
		t.Fatalf("local reference: %v", err)
	}
	out := coOut.String()
	if !strings.Contains(out, "MTBF") {
		t.Fatalf("coordinator output lacks the sweep table:\n%s", out)
	}
	for ri, m := range mtbfs {
		agg, merr := sim.MergeCampaignPayloads(res.Payloads[ri*n : (ri+1)*n])
		if merr != nil {
			t.Fatalf("local merge row %d: %v", ri, merr)
		}
		for what, v := range map[string]float64{
			"lost work":   agg.LostWork,
			"utilization": agg.Utilization,
			"crashes":     agg.Crashes,
		} {
			if !strings.Contains(out, fmt.Sprintf("%.4g", v)) {
				t.Errorf("sweep row mtbf=%g: output lacks local %s %.4g:\n%s", m, what, v, out)
			}
		}
	}
}

// TestDistrunFlagValidation: the CLI refuses contradictory or missing
// flags before touching the network.
func TestDistrunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing R", []string{"-ckpt", "uniform:1,3", "-task", "exp:0.05"}, "-R must be positive"},
		{"missing ckpt", []string{"-R", "60", "-task", "exp:0.05"}, "-ckpt is required"},
		{"missing law", []string{"-R", "60", "-ckpt", "uniform:1,3"}, "-task or -taskdisc"},
		{"resume without checkpoint", []string{"-R", "60", "-ckpt", "uniform:1,3", "-task", "exp:0.05", "-resume"}, "-resume requires -checkpoint"},
		{"bad mtbf", []string{"-R", "60", "-ckpt", "uniform:1,3", "-task", "exp:0.05", "-mtbf", "-3"}, "-mtbf must be positive"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestDistrunRejectsWorkerOfOtherSamplerVersion: a worker built before
// the sampler version entered the config fingerprint draws a different
// random stream, so the coordinator must refuse its lease with an error
// naming the fingerprint, rather than fold its blocks into the run. A
// worker with the current fingerprint of the same parts then completes
// the run, which proves the parts below are the ones the CLI hashes.
func TestDistrunRejectsWorkerOfOtherSamplerVersion(t *testing.T) {
	addr, coOut, coErr := startCoordinator(t, campaignArgs...)

	jobs := campaignJobs(t)
	parts := []string{"campaign", "R=60", "recovery=0", "task=exp:0.05", "taskdisc=",
		"ckpt=uniform:1,3", "totalwork=120", "faults=no faults", "trials=1280", "seed=7"}
	worker := func(name string, fp uint64) error {
		return runWorker(context.Background(), &bytes.Buffer{}, "http://"+addr, name, jobs, 7, fp,
			engine.Failure{}, 2)
	}

	err := worker("stale", ckpt.Fingerprint(parts...))
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "sampler version") {
		t.Errorf("stale worker: err = %v, want a 409 naming the sampler version", err)
	}
	if err := worker("current", reskit.ConfigFingerprint(parts...)); err != nil {
		t.Errorf("current worker: %v", err)
	}
	waitCoordinator(t, coOut, coErr)
}

// TestDistrunFingerprintMatchesSimulate pins the fingerprint parts to
// the ones cmd/simulate's campaign mode hashes: if this breaks,
// snapshots and workers stop being interchangeable between the two
// CLIs.
func TestDistrunFingerprintMatchesSimulate(t *testing.T) {
	got := reskit.ConfigFingerprint(
		"campaign",
		fmt.Sprintf("R=%g", 60.0),
		fmt.Sprintf("recovery=%g", 0.0),
		"task=exp:0.05",
		"taskdisc=",
		"ckpt=uniform:1,3",
		fmt.Sprintf("totalwork=%g", 120.0),
		fmt.Sprintf("faults=%v", (*reskit.FaultPlan)(nil)),
		fmt.Sprintf("trials=%d", 1280),
		fmt.Sprintf("seed=%d", 7),
	)
	// Recompute through the same helper the CLI uses — guarding against
	// a drive-by reordering of the parts in either place.
	want := reskit.ConfigFingerprint(
		"campaign", "R=60", "recovery=0", "task=exp:0.05", "taskdisc=",
		"ckpt=uniform:1,3", "totalwork=120", "faults=no faults", "trials=1280", "seed=7",
	)
	if got != want {
		t.Fatalf("fingerprint parts drifted: %016x != %016x", got, want)
	}
}
