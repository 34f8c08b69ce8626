package sim

import (
	"fmt"
	"strconv"
	"strings"

	"reskit/internal/engine"
	"reskit/internal/fault"
)

// Fault-sweep campaign grid, shared by cmd/simulate's -faultsweep and
// cmd/distrun's distributed flavor: both must derive the identical
// per-row configurations, job layout and names from the same sweep
// string, or their payloads (and fingerprints) would silently diverge.

// ParseFaultSweep parses a comma-separated MTBF grid such as "25,50,100".
func ParseFaultSweep(sweep string) ([]float64, error) {
	var mtbfs []float64
	for _, f := range strings.Split(sweep, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("sim: bad sweep MTBF %q: %w", f, err)
		}
		if !(v > 0) {
			return nil, fmt.Errorf("sim: sweep MTBF must be positive, got %g", v)
		}
		mtbfs = append(mtbfs, v)
	}
	return mtbfs, nil
}

// FaultSweepConfigs parses the sweep grid and builds one campaign
// configuration per row: the base campaign with its crash model swapped
// for an exponential arrival at rate 1/MTBF, every other configured
// fault model kept. The configs are fixed up front so every job closure
// over them is pure.
func FaultSweepConfigs(cfg CampaignConfig, sweep string) ([]float64, []CampaignConfig, error) {
	mtbfs, err := ParseFaultSweep(sweep)
	if err != nil {
		return nil, nil, err
	}
	cfgs := make([]CampaignConfig, len(mtbfs))
	for i, m := range mtbfs {
		c := cfg
		p := &fault.Plan{}
		if cfg.Reservation.Faults != nil {
			*p = *cfg.Reservation.Faults
		}
		crash, cerr := fault.NewExpArrival(1 / m)
		if cerr != nil {
			return nil, nil, cerr
		}
		p.Crash = crash
		c.Reservation.Faults = p
		cfgs[i] = c
	}
	return mtbfs, cfgs, nil
}

// FaultSweepJobs lays the sweep out as one engine job grid, row-major
// over (MTBF row, block): job i simulates block i%numBlocks of row
// i/numBlocks and is named "mtbf=<m>/block<b>". Both CLIs build the grid
// here, so ledgers, leases and logs agree on what job i is.
func FaultSweepJobs(mtbfs []float64, cfgs []CampaignConfig, trials int) []engine.Job {
	var jobs []engine.Job
	for ri, m := range mtbfs {
		jobs = CampaignJobs(jobs, fmt.Sprintf("mtbf=%g/", m), cfgs[ri], trials)
	}
	return jobs
}
