package reskit_test

import (
	"fmt"

	"reskit"
)

// The Section 3 problem: a 10-second reservation with a checkpoint
// duration uniform on [1, 7.5] — the paper's Figure 1(a) instance.
func ExampleNewPreemptible() {
	prob := reskit.NewPreemptible(10, reskit.Uniform(1, 7.5))
	sol := prob.OptimalX()
	fmt.Printf("X_opt = %.1f, E(W) = %.3f\n", sol.X, sol.ExpectedWork)
	fmt.Printf("pessimistic reaches %.0f%% of the optimum\n",
		100*prob.Pessimistic().ExpectedWork/sol.ExpectedWork)
	// Output:
	// X_opt = 5.5, E(W) = 3.115
	// pessimistic reaches 80% of the optimum
}

// The Section 4.2 static strategy on the paper's Figure 5 instance:
// Normal(3, 0.5) tasks, checkpoint ~ N(5, 0.4) truncated to [0, inf),
// R = 30.
func ExampleStatic_Optimize() {
	ckpt := reskit.TruncatedNormal(5, 0.4)
	static := reskit.NewStatic(30, reskit.Normal(3, 0.5), ckpt)
	sol := static.Optimize()
	fmt.Printf("run %d tasks, then checkpoint (E = %.1f)\n", sol.NOpt, sol.ENOpt)
	// Output:
	// run 7 tasks, then checkpoint (E = 21.0)
}

// The Section 4.3 dynamic rule on the paper's Figure 9 instance:
// Gamma(1, 0.5) tasks, checkpoint ~ N(2, 0.4) truncated, R = 10.
func ExampleDynamic_Intersection() {
	dyn := reskit.NewDynamic(10, reskit.Gamma(1, 0.5), reskit.TruncatedNormal(2, 0.4))
	w, err := dyn.Intersection()
	if err != nil {
		panic(err)
	}
	fmt.Printf("checkpoint once accumulated work reaches %.1f\n", w)
	fmt.Printf("at W_n = 5: checkpoint? %v\n", dyn.ShouldCheckpoint(5))
	fmt.Printf("at W_n = 8: checkpoint? %v\n", dyn.ShouldCheckpoint(8))
	// Output:
	// checkpoint once accumulated work reaches 6.4
	// at W_n = 5: checkpoint? false
	// at W_n = 8: checkpoint? true
}

// Building the paper's checkpoint-duration law D_C by truncation
// (Section 3.1) and sampling it reproducibly.
func ExampleTruncate() {
	law := reskit.Truncate(reskit.Exponential(0.5), 1, 5)
	fmt.Printf("support [%.0f, %.0f], P(C <= 3) = %.4f\n",
		1.0, 5.0, law.CDF(3))
	r := reskit.NewRNG(42)
	x := law.Sample(r)
	fmt.Printf("sample inside bounds: %v\n", x >= 1 && x <= 5)
	// Output:
	// support [1, 5], P(C <= 3) = 0.7311
	// sample inside bounds: true
}

// Simulating the Figure 8 instance under the dynamic strategy and
// checking the saved work against the oracle bound. The checks use the
// 95% confidence interval, so they hold for any exact sampler, not just
// one random stream.
func ExampleMonteCarlo() {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	dyn := reskit.NewDynamic(29, task, ckpt)
	cfg := reskit.SimConfig{R: 29, Task: task, Ckpt: ckpt,
		Strategy: reskit.DynamicStrategy(dyn)}
	agg := reskit.MonteCarlo(cfg, 50000, 1, 0)
	oracle := reskit.MonteCarloOracle(cfg, 50000, 1, 0)
	mean, ci := agg.Saved.Mean(), agg.Saved.CI95()
	fmt.Printf("dynamic saves between 21 and 22: %v\n", 21 < mean-ci && mean+ci < 22)
	fmt.Printf("below the oracle bound: %v\n", mean+ci < oracle.Saved.Mean()-oracle.Saved.CI95())
	// Output:
	// dynamic saves between 21 and 22: true
	// below the oracle bound: true
}
