package sim

import (
	"context"

	"reskit/internal/core"
	"reskit/internal/rng"
	"reskit/internal/stats"
)

// PreemptibleAggregate summarizes a Monte-Carlo experiment for the
// Section 3 scenario.
type PreemptibleAggregate struct {
	Work      stats.Summary // saved work per trial (0 on checkpoint failure)
	Successes int64         // trials whose checkpoint completed in time
	Trials    int64
}

// SuccessRate returns the fraction of trials whose checkpoint completed.
func (a PreemptibleAggregate) SuccessRate() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Trials)
}

// RunPreemptibleOnce simulates one reservation of the preemptible
// scenario with the checkpoint started x seconds before the end: it
// samples the checkpoint duration C and returns R - x when C <= x, and 0
// otherwise — the realized W(X) of Section 3.1.
func RunPreemptibleOnce(p *core.Preemptible, x float64, r *rng.Source) float64 {
	c := p.C.Sample(r)
	if c <= x && x <= p.R {
		return p.R - x
	}
	return 0
}

// MonteCarloPreemptible estimates E(W(X)) by simulation on the job
// engine: `trials` independent reservations with the checkpoint started
// x before the end, in fixed blocks on rng substreams of seed, across
// `workers` goroutines.
func MonteCarloPreemptible(p *core.Preemptible, x float64, trials int, seed uint64, workers int) PreemptibleAggregate {
	agg, _ := runBlocks(context.Background(), PreemptibleJobs(nil, "", p, x, false, trials), seed, workers, MergePreemptiblePayloads)
	return agg
}

// MonteCarloPreemptibleOracle simulates the clairvoyant policy that
// observes the realized checkpoint duration C and starts the checkpoint
// exactly C seconds before the end, saving R - C every time. It is the
// per-trial upper bound on any X policy.
func MonteCarloPreemptibleOracle(p *core.Preemptible, trials int, seed uint64, workers int) PreemptibleAggregate {
	agg, _ := runBlocks(context.Background(), PreemptibleJobs(nil, "", p, 0, true, trials), seed, workers, MergePreemptiblePayloads)
	return agg
}

// preemptPartial accumulates one block's preemptible-trial sums.
type preemptPartial struct {
	work      stats.Summary
	successes int64
	trials    int64
}

// preemptTrial returns the per-trial sampler of the given policy: the
// fixed lead-time x, or (oracle) the clairvoyant plan that observes the
// realized checkpoint duration.
func preemptTrial(p *core.Preemptible, x float64, oracle bool) func(*rng.Source) (float64, bool) {
	if oracle {
		return func(src *rng.Source) (float64, bool) {
			c := p.C.Sample(src)
			if c > p.R {
				return 0, false
			}
			return p.R - c, true
		}
	}
	return func(src *rng.Source) (float64, bool) {
		c := p.C.Sample(src)
		if c <= x && x <= p.R {
			return p.R - x, true
		}
		return 0, false
	}
}

// runPreemptBlock simulates the trials of block b ([b*mcBlockSize, ...))
// on src. complete is false when done fired mid-block; such a block must
// never be committed as durable state. done is polled every cancelPoll
// trials.
func runPreemptBlock(trial func(*rng.Source) (float64, bool), trials, b int,
	src *rng.Source, done <-chan struct{}) (p preemptPartial, complete bool) {

	lo := b * mcBlockSize
	hi := lo + mcBlockSize
	if hi > trials {
		hi = trials
	}
	for i := lo; i < hi; i++ {
		if (i-lo)&(cancelPoll-1) == 0 {
			select {
			case <-done:
				return p, false
			default:
			}
		}
		v, ok := trial(src)
		p.work.Add(v)
		if ok {
			p.successes++
		}
		p.trials++
	}
	return p, true
}
