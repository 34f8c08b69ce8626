// Command perfbench is reskit's benchmark: it runs one workload on the
// code path the commands ship (engine.Run/RunStream over internal/sim
// block payloads, advisor.Handler over loopback HTTP, distrun
// coordinator and workers over loopback), checks the outputs, and
// prints the metrics as one JSON object on the last line of stdout.
//
//	go run . --workload distrun-gamma --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run and writes its spans
// to --spans. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set of every untraced run. Each workload
// reports each metric; README.md maps them to the workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"result_ms", "ms"},
	{"latency_us", "us"},
	{"latency_p90_us", "us"},
	{"peak_heap_mb", "MB"},
}

// perLayer is the metric set of every traced run. A layer the workload
// does not run reports 0.
var perLayer = []metricDef{
	{"dist.task_draw_ns", "ns"},
	{"dist.ckpt_draw_ns", "ns"},
	{"dist.draws_per_trial", "count"},
	{"specfun.gamma_inc_p_inv_ns", "ns"},
	{"specfun.norm_quantile_ns", "ns"},
	{"specfun.norm_cdf_ns", "ns"},
	{"strategy.decide_ns", "ns"},
	{"strategy.decisions_per_trial", "count"},
	{"core.table_build_ms", "ms"},
	{"quad.evals", "count"},
	{"sim.block_ms.p50", "ms"},
	{"sim.block_ms.p99", "ms"},
	{"sim.allocs_per_trial", "count"},
	{"stream.trials_to_stop", "count"},
	{"engine.job_us.p50", "us"},
	{"engine.job_us.p99", "us"},
	{"engine.overhead_frac", "ratio"},
	{"stream.commit_us.p50", "us"},
	{"stream.commit_us.p99", "us"},
	{"ckpt.snapshots", "count"},
	{"ckpt.blocks_committed", "count"},
	{"ckpt.write_ms", "ms"},
	{"advisor.hit_ns", "ns"},
	{"advisor.hit_p99_us", "us"},
	{"advisor.build_ms", "ms"},
	{"advisor.miss_p90_ms", "ms"},
	{"advisor.cache_hits", "count"},
	{"advisor.builds", "count"},
	{"advisor.store_writes", "count"},
	{"http.handler_us", "us"},
	{"http.net_us", "us"},
	{"distrun.rtt_us.p50", "us"},
	{"distrun.rtt_us.p99", "us"},
	{"distrun.leases_issued", "count"},
	{"distrun.lease_batch", "count"},
	{"distrun.jobs_requeued", "count"},
	{"distrun.worker_idle_frac", "ratio"},
	{"loadgen.late_p99_us", "us"},
	{"self.dist_frac", "ratio"},
	{"self.strategy_frac", "ratio"},
	{"self.sim_frac", "ratio"},
	{"self.stream_frac", "ratio"},
	{"self.http_frac", "ratio"},
	{"self.net_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) error{
	"distrun-gamma":      runDistrunGamma,
	"stream-norm-faults": runStreamNormFaults,
	"advise-open-loop":   runAdviseOpenLoop,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string  // span file of a traced run
	scale    float64 // shrinks every run size (tests use tiny runs)
	dir      string  // root of temporary files
}

// env is what a workload run reads and fills in.
type env struct {
	opts options
	tr   *tracer // nil in untraced runs

	attempted, failed atomic.Int64
	metrics           map[string]float64
	checks            []checkResult
	log               io.Writer
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

// set records a metric value.
func (e *env) set(name string, v float64) { e.metrics[name] = v }

// check records the outcome of one correctness check.
func (e *env) check(name string, ok bool, format string, args ...any) {
	e.checks = append(e.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// scaled shrinks a run size by the test scale, keeping it at least lo.
func (e *env) scaled(n, lo int) int {
	v := int(float64(n) * e.opts.scale)
	if v < lo {
		return lo
	}
	return v
}

// tempDir makes a fresh directory for snapshots and stores.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.opts.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.opts.dir, prefix)
}

// runHeader identifies the host, toolchain, code and inputs of a run.
type runHeader struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
}

func newHeader(o options) runHeader {
	return runHeader{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: gitSHA(),
	}
}

// gitSHA is the revision the binary was built from, as stamped by the
// go command, or "unknown" outside a git checkout.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if sha == "" {
		return "unknown"
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run. It returns 0 when every check passed,
// 1 when a check failed (the result is still printed) and 2 when the
// run could not complete (nothing is printed).
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	fs.Float64Var(&o.scale, "scale", 1, "shrink factor for every run size (tests)")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for temporary files and spans")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	runWorkload, ok := workloads[o.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if !(o.seconds > 0) || !(o.scale > 0) || o.scale > 1 {
		return 2, fmt.Errorf("--seconds must be positive and --scale in (0, 1]")
	}
	o.trace = traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}

	e := &env{opts: o, metrics: make(map[string]float64), log: stderr}
	if o.trace {
		e.tr = newTracer()
	}
	header := newHeader(o)
	hb, _ := json.Marshal(map[string]any{"header": header})
	fmt.Fprintln(stdout, string(hb))

	heap := startHeapSampler()
	err := runWorkload(context.Background(), e)
	peak := heap.stop()
	if err != nil {
		return 2, fmt.Errorf("%s: %w", o.workload, err)
	}
	e.set("peak_heap_mb", peak/(1<<20))
	if o.trace {
		specfunProbe(e)
		spans := e.tr.snapshot()
		e.set("trace.spans", float64(len(spans)))
		if err := writeSpans(o.spans, header, spans); err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "spans: %d -> %s\n", len(spans), o.spans)
	}

	correct := true
	for _, c := range e.checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAIL", false
		}
		fmt.Fprintf(stdout, "check %-28s %s  %s\n", c.name, status, c.detail)
	}
	if len(e.checks) == 0 {
		return 2, errors.New("workload ran no correctness check")
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: correct, Attempted: e.attempted.Load(), Failed: e.failed.Load(),
		Metrics: make(map[string]metricValue, len(defs))}
	if res.Attempted < 1 {
		return 2, errors.New("workload attempted no operation")
	}
	for _, d := range defs {
		v, ok := e.metrics[d.name]
		if !ok {
			v = 0 // a layer this workload does not run
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 2, fmt.Errorf("metric %s has no value: too few samples in the run", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(out))
	if !correct {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repeatUntil runs rep until at least min reps ran and the measured
// time is spent.
func repeatUntil(seconds float64, min int, rep func(i int) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}
