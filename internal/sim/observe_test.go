package sim

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"reskit/internal/fault"
	"reskit/internal/obs"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// fullObserver returns an Observer with every instrument live: all
// counters bound, the saved-work histogram, a collecting trace sink
// sampling one trial in `every`, and a progress reporter (not started —
// the counter still ticks). The heaviest possible observation, used to
// prove observability cannot perturb results.
func fullObserver(reg *obs.Registry, every int64, total int64) (*Observer, *obs.Collector) {
	col := &obs.Collector{}
	o := NewObserver(reg, 30)
	o.Trace = col
	o.TraceEvery = every
	o.Progress = obs.NewProgress(io.Discard, "test", total, time.Hour)
	return o, col
}

func TestObserverDoesNotPerturbMonteCarlo(t *testing.T) {
	// The determinism contract: attaching full observability (counters,
	// histogram, tracing of every trial, progress) must leave the
	// aggregate bit-identical to the bare run, for any worker count —
	// observation never consumes randomness or alters control flow.
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.05},
		Ckpt:   fault.CkptBernoulli{P: 0.1},
		Revoke: fault.UniformRevocation{P: 0.05},
	}
	const trials = 10000
	bare := MonteCarlo(cfg, trials, 17, 1)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		observed := cfg
		ob, _ := fullObserver(obs.NewRegistry(), 1, trials)
		observed.Obs = ob
		got := MonteCarlo(observed, trials, 17, workers)
		if got != bare {
			t.Errorf("aggregate with observation differs at %d workers:\n got  %+v\n want %+v", workers, got, bare)
		}
	}
}

func TestObserverDoesNotPerturbCampaign(t *testing.T) {
	cfg := faultyCampaignConfig(&fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.02},
		Ckpt:   fault.CkptBernoulli{P: 0.2},
		Revoke: fault.UniformRevocation{P: 0.1},
	})
	const trials = 300
	bare := MonteCarloCampaign(cfg, trials, 7, 1)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		observed := cfg
		ob, _ := fullObserver(obs.NewRegistry(), 1, trials)
		observed.Reservation.Obs = ob
		got := MonteCarloCampaign(observed, trials, 7, workers)
		if got != bare {
			t.Errorf("campaign aggregate with observation differs at %d workers:\n got  %+v\n want %+v", workers, got, bare)
		}
	}
}

func TestRunObservedBitIdenticalPerStream(t *testing.T) {
	// Per-run equivalence across 50 independent streams: the observed run
	// must consume exactly the same variates as the bare run.
	bare := fig8Config(strategy.NewWorkThreshold(20))
	bare.Faults = &fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.05},
		Ckpt:   fault.CkptHazard{Rate: 0.1},
		Revoke: fault.ExpRevocation{Rate: 0.01},
	}
	observed := bare
	ob, _ := fullObserver(obs.NewRegistry(), 1, 50)
	observed.Obs = ob
	for stream := uint64(0); stream < 50; stream++ {
		a := Run(bare, rng.NewStream(9, stream))
		b := Run(observed, rng.NewStream(9, stream))
		if a != b {
			t.Fatalf("stream %d: bare run %+v != observed run %+v", stream, a, b)
		}
	}
}

func TestObserverCountersMatchAggregate(t *testing.T) {
	// The streaming counters must agree exactly with the aggregate the
	// runner returns — same trials, same tallies, no drops or doubles.
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.05},
		Ckpt:   fault.CkptBernoulli{P: 0.1},
		Revoke: fault.UniformRevocation{P: 0.05},
	}
	const trials = 5000
	reg := obs.NewRegistry()
	ob, _ := fullObserver(reg, 0, trials)
	cfg.Obs = ob
	agg := MonteCarlo(cfg, trials, 23, 0)

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"sim.trials", ob.Trials.Value(), agg.Trials},
		{"sim.tasks", ob.Tasks.Value(), int64(agg.Tasks.Mean()*float64(agg.Trials) + 0.5)},
		{"sim.checkpoints", ob.Checkpoints.Value(), int64(agg.Checkpoints.Mean()*float64(agg.Trials) + 0.5)},
		{"sim.crashes", ob.Crashes.Value(), int64(agg.Failures.Mean()*float64(agg.Trials) + 0.5)},
		{"sim.revocations", ob.Revocations.Value(), agg.RevokedRuns},
		{"sim.zero_runs", ob.ZeroRuns.Value(), agg.ZeroRuns},
		{"progress", ob.Progress.Done(), agg.Trials},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	wantBlocks := int64((trials + mcBlockSize - 1) / mcBlockSize)
	if ob.Blocks.Value() != wantBlocks {
		t.Errorf("sim.blocks = %d, want %d", ob.Blocks.Value(), wantBlocks)
	}
	if n := ob.SavedWork.Snapshot().Count; n != agg.Trials {
		t.Errorf("saved-work histogram observed %d values, want %d", n, agg.Trials)
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.05},
		Ckpt:   fault.CkptBernoulli{P: 0.2},
		Revoke: fault.UniformRevocation{P: 0.1},
	}
	const trials, every = 2000, 7
	ob, col := fullObserver(nil, every, trials)
	cfg.Obs = ob
	agg := MonteCarlo(cfg, trials, 31, 0)

	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no trace events collected")
	}
	runEnds := 0
	perTrialKinds := map[int64]bool{}
	for _, ev := range events {
		if ev.Trial < 0 || ev.Trial >= trials {
			t.Fatalf("event trial %d out of range", ev.Trial)
		}
		if !obs.Sampled(ev.Trial, every) {
			t.Fatalf("event from unsampled trial %d (every=%d)", ev.Trial, every)
		}
		switch ev.Kind {
		case obs.EvTaskEnd, obs.EvCkptStart, obs.EvCkptCommit, obs.EvCkptFault,
			obs.EvCrash, obs.EvRevocation, obs.EvRunEnd:
		default:
			t.Fatalf("unknown event kind %v", ev.Kind)
		}
		if ev.Kind == obs.EvRunEnd {
			runEnds++
			perTrialKinds[ev.Trial] = true
		}
		if ev.Time < 0 || ev.Value < 0 {
			t.Fatalf("negative timestamp or value in %+v", ev)
		}
	}
	wantSampled := 0
	for i := int64(0); i < trials; i++ {
		if obs.Sampled(i, every) {
			wantSampled++
		}
	}
	if runEnds != wantSampled {
		t.Errorf("run_end events = %d, want one per sampled trial = %d", runEnds, wantSampled)
	}
	if len(perTrialKinds) != wantSampled {
		t.Errorf("distinct traced trials = %d, want %d", len(perTrialKinds), wantSampled)
	}
	_ = agg
}

// cancelAfterRuns returns an Observer whose trace sink cancels the run
// once n reservations have ended, and a function reporting when it did.
// The trigger counts simulated work, not wall-clock time, so the cancel
// always lands mid-run however loaded the host is; the hook consumes no
// randomness, like every observer.
func cancelAfterRuns(n int64, cancel context.CancelFunc) (*Observer, func() time.Time) {
	var ended atomic.Int64
	var at atomic.Pointer[time.Time]
	o := &Observer{Trace: obs.FuncSink(func(ev obs.Event) {
		if ev.Kind == obs.EvRunEnd && ended.Add(1) == n {
			now := time.Now()
			at.Store(&now)
			cancel()
		}
	})}
	return o, func() time.Time { return *at.Load() }
}

func TestMonteCarloCancellationMergesOnlyCompletedTrials(t *testing.T) {
	// The cancellation contract: blocks are all-or-nothing, so the
	// aggregate covers exactly the completed blocks — every per-metric
	// summary holds one sample per accounted trial, never a partial or
	// duplicated one. With one worker the cancel fires on the last trial
	// of block 0, which completes; block 1 is interrupted at its first
	// poll and discarded, so exactly one block is accounted.
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Obs, _ = cancelAfterRuns(mcBlockSize, cancel)
	agg, err := MonteCarloContext(ctx, cfg, 50_000_000, 41, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if agg.Trials != mcBlockSize {
		t.Fatalf("cancellation accounted %d trials; want exactly one block of %d", agg.Trials, mcBlockSize)
	}
	for _, s := range []struct {
		name string
		n    int64
	}{
		{"Saved", agg.Saved.N()},
		{"Lost", agg.Lost.N()},
		{"Tasks", agg.Tasks.N()},
		{"Checkpoints", agg.Checkpoints.N()},
		{"Failures", agg.Failures.N()},
		{"CkptFaults", agg.CkptFaults.N()},
		{"TimeUsed", agg.TimeUsed.N()},
	} {
		if s.n != agg.Trials {
			t.Errorf("%s summary holds %d samples, want Trials = %d", s.name, s.n, agg.Trials)
		}
	}
}
