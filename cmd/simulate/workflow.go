package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"reskit"
	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/lawspec"
	"reskit/internal/sim"
	"reskit/internal/stats"
)

// stratSpec is one resolved strategy of the comparison: either a
// runnable configuration (cfg, oracle) or a table note explaining why
// the strategy cannot run under the current flags.
type stratSpec struct {
	name   string
	note   string // non-empty: print the note row, schedule no jobs
	cfg    reskit.SimConfig
	oracle bool
}

// runWorkflow compares checkpoint strategies on the workflow
// reservation (the paper's Figure 8/10 setting). Every strategy's
// Monte-Carlo runs as blocks of one shared engine grid, so the whole
// comparison is resumable with -checkpoint/-resume and the printed
// table is bit-identical for any worker count. Block b of every
// strategy draws rng substream b — exactly what a standalone run of
// that strategy would draw — so each row matches the single-strategy
// result to the bit.
func runWorkflow(ctx context.Context, out io.Writer, r, recovery, failRate float64, taskSpec, taskDiscSpec string, ckpt reskit.Continuous,
	trials int, seed uint64, workers int, strategyList string, hist bool, plan *reskit.FaultPlan, ckOpts ckptOpts, ob *simObs) error {

	base := reskit.SimConfig{R: r, Recovery: recovery, Ckpt: ckpt, FailureRate: failRate, Faults: plan}
	ob.attach(&base)
	if plan.Active() {
		fmt.Fprintf(out, "faults: %v\n", plan)
	}
	var taskMeanLaw interface {
		Mean() float64
		Quantile(float64) float64
	}
	var static *reskit.Static
	var dynamic *reskit.Dynamic
	switch {
	case taskSpec != "":
		law, err := lawspec.Parse(taskSpec)
		if err != nil {
			return err
		}
		base.Task = law
		taskMeanLaw = law
		if dynamic, err = reskit.TryNewDynamic(r, law, ckpt); err != nil {
			return err
		}
		if s, ok := law.(reskit.Summable); ok {
			static, err = reskit.TryNewStatic(r, s, ckpt)
		} else {
			// Truncated laws are not Summable; approximate the static
			// problem with a Normal matching the first two moments.
			static, err = reskit.TryNewStatic(r, reskit.Normal(law.Mean(), math.Sqrt(law.Variance())), ckpt)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "workflow: R=%g, X ~ %v, C ~ %v, %d trials\n\n", r, law, ckpt, trials)
	case taskDiscSpec != "":
		law, err := lawspec.ParseDiscrete(taskDiscSpec)
		if err != nil {
			return err
		}
		base.TaskDisc = law
		if dynamic, err = reskit.TryNewDynamicDiscrete(r, law, ckpt); err != nil {
			return err
		}
		if s, ok := law.(reskit.SummableDiscrete); ok {
			if static, err = reskit.TryNewStaticDiscrete(r, s, ckpt); err != nil {
				return err
			}
		} else {
			return fmt.Errorf("discrete law %v does not support the static strategy", law)
		}
		taskMeanLaw = poissonQuantiler{law}
		fmt.Fprintf(out, "workflow: R=%g, X ~ %v (discrete), C ~ %v, %d trials\n\n", r, law, ckpt, trials)
	default:
		return errors.New("-task or -taskdisc is required (or use -preempt)")
	}

	sol := static.Optimize()
	wInt, wErr := dynamic.Intersection()

	// Resolve every requested strategy before any simulation runs, so
	// configuration problems (an unknown name, an unusable pessimistic
	// bound) surface as errors up front, not mid-table.
	var specs []stratSpec
	for _, name := range strings.Split(strategyList, ",") {
		name = strings.TrimSpace(name)
		s := stratSpec{name: name, cfg: base}
		switch name {
		case "oracle":
			s.cfg.Strategy = reskit.NeverStrategy()
			s.oracle = true
		case "dynamic":
			s.cfg.Strategy = ob.counted(reskit.DynamicStrategy(dynamic))
		case "static":
			s.cfg.Strategy = ob.counted(reskit.StaticStrategy(sol.NOpt))
		case "threshold":
			if wErr != nil {
				s.note = "(no intersection)"
				break
			}
			s.cfg.Strategy = ob.counted(reskit.ThresholdStrategy(wInt))
		case "pessimistic":
			pess, perr := reskit.TryPessimisticStrategy(
				taskMeanLaw.Quantile(0.9999), ckpt.Quantile(0.9999))
			if perr != nil {
				return perr
			}
			s.cfg.Strategy = ob.counted(pess)
		case "never":
			s.cfg.Strategy = ob.counted(reskit.NeverStrategy())
		case "youngdaly":
			if failRate <= 0 {
				s.note = "(needs -failrate > 0)"
				break
			}
			s.cfg.Strategy = ob.counted(reskit.YoungDalyStrategy(1/failRate, ckpt.Mean()))
			s.cfg.After = reskit.ContinueExecution
		default:
			return fmt.Errorf("unknown strategy %q", name)
		}
		specs = append(specs, s)
	}

	// One engine job per (runnable strategy, block); offsets[i] is the
	// base job index of specs[i] (-1 for note rows).
	numBlocks := sim.NumMonteCarloBlocks(trials)
	offsets := make([]int, len(specs))
	var jobs []engine.Job
	for si := range specs {
		if specs[si].note != "" {
			offsets[si] = -1
			continue
		}
		offsets[si] = len(jobs)
		jobs = sim.MonteCarloJobs(jobs, specs[si].name+"/", specs[si].cfg, trials, specs[si].oracle)
	}

	check := func(_ int, data []byte) error { return sim.CheckMonteCarloPayload(data) }
	res, runErr := engine.Run(ctx, ckOpts.spec(jobs, seed, workers, out, ob, check))
	if err := hardFailure(ctx, runErr, res); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	faulty := plan.Active()
	if faulty {
		fmt.Fprintf(tw, "strategy\tE(saved)\t±95%%\tE(tasks)\tE(ckpts)\tE(ckptfaults)\tE(crashes)\trevoked\tzero-runs\n")
	} else {
		fmt.Fprintf(tw, "strategy\tE(saved)\t±95%%\tE(tasks)\tE(ckpts)\tzero-runs\n")
	}
	for si, s := range specs {
		if s.note != "" {
			fmt.Fprintf(tw, "%s\t%s\n", s.name, s.note)
			continue
		}
		agg, err := sim.MergeMonteCarloPayloads(res.Payloads[offsets[si] : offsets[si]+numBlocks])
		if err != nil {
			return err
		}
		if agg.Trials > 0 {
			zeroPct := 100 * float64(agg.ZeroRuns) / float64(agg.Trials)
			if faulty {
				fmt.Fprintf(tw, "%s\t%.5g\t%.2g\t%.4g\t%.3g\t%.3g\t%.3g\t%.2f%%\t%.2f%%\n",
					s.name, agg.Saved.Mean(), agg.Saved.CI95(), agg.Tasks.Mean(), agg.Checkpoints.Mean(),
					agg.CkptFaults.Mean(), agg.Failures.Mean(),
					100*float64(agg.RevokedRuns)/float64(agg.Trials), zeroPct)
			} else {
				fmt.Fprintf(tw, "%s\t%.5g\t%.2g\t%.4g\t%.3g\t%.2f%%\n",
					s.name, agg.Saved.Mean(), agg.Saved.CI95(), agg.Tasks.Mean(), agg.Checkpoints.Mean(), zeroPct)
			}
		}
		if int(agg.Trials) < trials {
			fmt.Fprintf(tw, "%s\t(%s after %d/%d trials)\n", s.name, stopMarker(ctx), agg.Trials, trials)
			break
		}
		if hist {
			if err := printHistogram(tw, s.name, s.cfg, trials, seed, r); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if runErr != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(out, "\n%s (%v); remaining strategies skipped\n", stopMarker(ctx), runErr)
		}
		return finishRun(ctx, out, runErr, res, ckOpts)
	}
	fmt.Fprintf(out, "\nstatic n_opt = %d (E = %.5g analytic)\n", sol.NOpt, sol.ENOpt)
	if wErr == nil {
		fmt.Fprintf(out, "dynamic W_int = %.5g\n", wInt)
	}
	return nil
}

// printHistogram re-runs a small sample of reservations and renders the
// saved-work distribution as a 40-column ASCII bar chart.
func printHistogram(out io.Writer, name string, cfg reskit.SimConfig, trials int, seed uint64, rMax float64) error {
	n := trials
	if n > 5000 {
		n = 5000
	}
	h := stats.NewHistogram(0, rMax, 10)
	src := reskit.NewRNGStream(seed, 999)
	for i := 0; i < n; i++ {
		h.Add(reskit.Simulate(cfg, src).Saved)
	}
	peak := int64(1)
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	w := rMax / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := strings.Repeat("#", int(40*c/peak))
		fmt.Fprintf(out, "  [%5.1f-%5.1f)\t%s %d\n", float64(i)*w, float64(i+1)*w, bar, c)
	}
	return nil
}

// poissonQuantiler adapts a discrete law to the Quantile interface used
// for the pessimistic bound.
type poissonQuantiler struct{ d reskit.Discrete }

func (p poissonQuantiler) Mean() float64 { return p.d.Mean() }

func (p poissonQuantiler) Quantile(q float64) float64 {
	return float64(dist.DiscreteQuantile(p.d, q))
}
