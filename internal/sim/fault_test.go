package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"reskit/internal/dist"
	"reskit/internal/fault"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// faultyCampaignConfig is the Figure 8 instance run as a threshold-policy
// campaign, the shared fixture of the fault regression tests.
func faultyCampaignConfig(p *fault.Plan) CampaignConfig {
	return CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewWorkThreshold(20),
			Faults:   p,
		},
		TotalWork: 200,
	}
}

func TestRunLegacyFailureRateMatchesCrashPlan(t *testing.T) {
	// The legacy FailureRate path and an ExpArrival crash plan draw the
	// same variates at the same trajectory points, so for a fixed stream
	// the two runs must be bit-identical — the fault layer generalizes
	// FailureRate without disturbing it.
	legacy := fig8Config(strategy.NewWorkThreshold(20))
	legacy.FailureRate = 0.05
	planned := fig8Config(strategy.NewWorkThreshold(20))
	planned.Faults = &fault.Plan{Crash: fault.ExpArrival{Rate: 0.05}}
	for stream := uint64(0); stream < 50; stream++ {
		a := Run(legacy, rng.NewStream(9, stream))
		b := Run(planned, rng.NewStream(9, stream))
		if a != b {
			t.Fatalf("stream %d: FailureRate run %+v != crash-plan run %+v", stream, a, b)
		}
	}
}

func TestRunCkptFailureNeverCommits(t *testing.T) {
	// With every commit failing, no work is ever saved; the attempts
	// consume time and are counted in CkptFaults.
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{Ckpt: fault.CkptBernoulli{P: 1}}
	r := rng.New(21)
	sawFault := false
	for i := 0; i < 200; i++ {
		res := Run(cfg, r)
		if res.Saved != 0 || res.Checkpoints != 0 {
			t.Fatalf("run %d committed work despite p=1 commit failures: %+v", i, res)
		}
		if res.CkptFaults > 0 {
			sawFault = true
			if res.Lost == 0 {
				t.Fatalf("run %d had %d failed commits but lost no work: %+v", i, res.CkptFaults, res)
			}
		}
	}
	if !sawFault {
		t.Fatal("no run recorded a checkpoint fault")
	}
}

func TestRunRevocationTruncatesHorizon(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{Revoke: fault.UniformRevocation{P: 1}}
	r := rng.New(13)
	for i := 0; i < 200; i++ {
		res := Run(cfg, r)
		if !res.Revoked {
			t.Fatalf("run %d not flagged revoked under p=1 revocation: %+v", i, res)
		}
		if !(res.TimeUsed < cfg.R) {
			t.Fatalf("run %d used %g >= nominal R %g despite revocation", i, res.TimeUsed, cfg.R)
		}
	}
}

func TestCampaignFaultGoldenRegression(t *testing.T) {
	// Seeded golden values, one per fault model plus their composition:
	// any change to the documented fault sampling order (recovery, then
	// revocation horizon, then first crash gap; one gap per crash, one
	// commit variate per completed attempt) breaks these exact numbers.
	// So does a change of the law samplers' streams (dist.SamplerVersion):
	// the values are pinned for sampler version 2.
	golden := map[string]struct {
		plan *fault.Plan
		want CampaignResult
	}{
		"crash": {
			plan: &fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}},
			want: CampaignResult{Reservations: 22, Committed: 214.12729614422724, LostWork: 267.0993913222959, Crashes: 13, Completed: true},
		},
		"ckptfail": {
			plan: &fault.Plan{Ckpt: fault.CkptBernoulli{P: 0.3}},
			want: CampaignResult{Reservations: 22, Committed: 215.5321934322046, LostWork: 262.8230956257562, CkptFaults: 10, Completed: true},
		},
		"revoke": {
			plan: &fault.Plan{Revoke: fault.UniformRevocation{P: 0.3}},
			want: CampaignResult{Reservations: 11, Committed: 213.24596770613545, LostWork: 2.839823499469511, RevokedRes: 1, Completed: true},
		},
		"all": {
			plan: &fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}, Ckpt: fault.CkptBernoulli{P: 0.3}, Revoke: fault.UniformRevocation{P: 0.3}},
			want: CampaignResult{Reservations: 53, Committed: 212.24924426147015, LostWork: 797.4448467501575, CkptFaults: 10, Crashes: 21, RevokedRes: 16, Completed: true},
		},
	}
	for name, g := range golden {
		got := RunCampaign(faultyCampaignConfig(g.plan), rng.NewStream(42, 0))
		if got.Reservations != g.want.Reservations ||
			got.Committed != g.want.Committed ||
			got.LostWork != g.want.LostWork ||
			got.CkptFaults != g.want.CkptFaults ||
			got.Crashes != g.want.Crashes ||
			got.RevokedRes != g.want.RevokedRes ||
			got.Completed != g.want.Completed {
			t.Errorf("%s: campaign drifted from golden values:\n got  %+v\n want %+v", name, got, g.want)
		}
	}
}

func TestFaultyCampaignBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := faultyCampaignConfig(&fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.02},
		Ckpt:   fault.CkptBernoulli{P: 0.2},
		Revoke: fault.UniformRevocation{P: 0.1},
	})
	const trials = 500
	ref := MonteCarloCampaign(cfg, trials, 7, 1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		if got := MonteCarloCampaign(cfg, trials, 7, workers); got != ref {
			t.Errorf("faulty campaign aggregate differs at %d workers:\n got  %+v\n want %+v", workers, got, ref)
		}
	}
}

func TestFaultyMonteCarloBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.05},
		Ckpt:   fault.CkptHazard{Rate: 0.1},
		Revoke: fault.ExpRevocation{Rate: 0.01},
	}
	const trials = 20000
	ref := MonteCarlo(cfg, trials, 3, 1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		if got := MonteCarlo(cfg, trials, 3, workers); got != ref {
			t.Errorf("faulty reservation aggregate differs at %d workers", workers)
		}
	}
}

func TestMonteCarloCampaignContextUncancelledMatches(t *testing.T) {
	cfg := faultyCampaignConfig(&fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}})
	const trials = 200
	want := MonteCarloCampaign(cfg, trials, 5, 0)
	got, err := MonteCarloCampaignContext(context.Background(), cfg, trials, 5, 0)
	if err != nil {
		t.Fatalf("uncancelled context run errored: %v", err)
	}
	if got != want {
		t.Errorf("uncancelled context aggregate differs:\n got  %+v\n want %+v", got, want)
	}
	if got.Trials != trials {
		t.Errorf("accounted %d trials, want %d", got.Trials, trials)
	}
}

func TestMonteCarloCampaignContextCancellation(t *testing.T) {
	// Acceptance criterion: cancelling the campaign Monte-Carlo returns
	// within 100ms with a well-formed partial aggregate.
	cfg := faultyCampaignConfig(&fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}})
	cfg.TotalWork = 5000 // long campaigns, so cancellation strikes mid-flight

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt func() time.Time
	cfg.Reservation.Obs, cancelledAt = cancelAfterRuns(1, cancel)
	const trials = 200000 // hours of campaigning — cannot finish before the cancel
	agg, err := MonteCarloCampaignContext(ctx, cfg, trials, 11, 0)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(cancelledAt()); elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want <= 100ms after the cancel signal", elapsed)
	}
	if agg.Trials < 0 || agg.Trials >= trials {
		t.Errorf("partial aggregate accounted %d trials", agg.Trials)
	}
	if agg.Trials > 0 {
		if math.IsNaN(agg.Utilization) || agg.Utilization < 0 || agg.Utilization > 1 {
			t.Errorf("partial utilization %g malformed", agg.Utilization)
		}
		if agg.Reservations <= 0 {
			t.Errorf("partial mean reservations %g malformed", agg.Reservations)
		}
	}
}

func TestMonteCarloContextCancellation(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt func() time.Time
	cfg.Obs, cancelledAt = cancelAfterRuns(1, cancel)
	agg, err := MonteCarloContext(ctx, cfg, 50_000_000, 1, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(cancelledAt()); elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want <= 100ms after the cancel signal", elapsed)
	}
	if agg.Trials > 0 && (math.IsNaN(agg.Saved.Mean()) || agg.Saved.Mean() < 0) {
		t.Errorf("partial mean saved work %g malformed", agg.Saved.Mean())
	}
}

func TestConfigValidateErrors(t *testing.T) {
	valid := fig8Config(strategy.NewWorkThreshold(20))
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.R = 0 },
		func(c *Config) { c.R = math.NaN() },
		func(c *Config) { c.R = math.Inf(1) },
		func(c *Config) { c.Recovery = -1 },
		func(c *Config) { c.Recovery = math.NaN() },
		func(c *Config) { c.FailureRate = -0.5 },
		func(c *Config) { c.FailureRate = math.Inf(1) },
		func(c *Config) { c.Task = nil },
		func(c *Config) { c.TaskDisc = dist.NewPoisson(3) }, // both task laws set
		func(c *Config) { c.Ckpt = nil },
		func(c *Config) { c.Strategy = nil },
		func(c *Config) { c.MaxTasks = -1 },
		func(c *Config) { c.Faults = &fault.Plan{Ckpt: fault.CkptBernoulli{P: 2}} },
		func(c *Config) {
			c.FailureRate = 0.1
			c.Faults = &fault.Plan{Crash: fault.ExpArrival{Rate: 0.1}}
		},
	}
	for i, m := range mutate {
		c := fig8Config(strategy.NewWorkThreshold(20))
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted an invalid config", i)
		}
	}
}

func TestCampaignConfigValidateErrors(t *testing.T) {
	valid := faultyCampaignConfig(nil)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid campaign config rejected: %v", err)
	}
	for i, m := range []func(*CampaignConfig){
		func(c *CampaignConfig) { c.TotalWork = 0 },
		func(c *CampaignConfig) { c.TotalWork = -5 },
		func(c *CampaignConfig) { c.TotalWork = math.NaN() },
		func(c *CampaignConfig) { c.TotalWork = math.Inf(1) },
		func(c *CampaignConfig) { c.MaxReservations = -1 },
		func(c *CampaignConfig) { c.Reservation.R = math.NaN() },
	} {
		c := faultyCampaignConfig(nil)
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted an invalid campaign config", i)
		}
	}
}
