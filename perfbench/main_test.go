package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTinyRuns runs every workload, untraced and traced, at a tiny
// scale through the same entry point the benchmark command uses.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code, err := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--scale", "0.01", "--dir", dir}, &stdout, &stderr)
				if code != 0 || err != nil {
					t.Fatalf("exit %d, err %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if len(res) != 4 {
					t.Fatalf("result keys = %d, want correct/attempted/failed/metrics", len(res))
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(defs) {
					t.Fatalf("result %+v", r)
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(dir + "/spans-" + w + "-3.jsonl"); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "distrun-gamma", "--trace", "2"},
		{"--workload", "distrun-gamma", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code, _ := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestMetricNames checks the metric names against the benchmark's
// naming rule and against BENCHMARK.json at the repository root.
func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command reports %d", len(c.file), len(c.code))
		}
		for i := range c.file {
			if c.file[i].Name != c.code[i].name || c.file[i].Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %v, command %v", i, c.file[i], c.code[i])
			}
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command %v", names, workloadNames())
	}
}

// TestSelfTimes checks the self-time arithmetic on a synthetic tree:
//
//	root [0,100]
//	├── a [10,30]          overlaps b: the union of a and b is [10,50]
//	│   └── a1 [12,18]
//	├── b [20,50]
//	│   └── w ×4 [40,42]   a 1-in-4 sample: stands for 8 ns of b
//	└── (orphan) d ×2 [60,65], charged to layer b: 10 ns
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 2, Name: "a1", Start: 12, End: 18},
		{ID: 4, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 5, Parent: 4, Name: "w", Start: 40, End: 42, Weight: 4},
		{ID: 6, Name: "d", Start: 60, End: 65, Weight: 2},
	}
	got := selfTimes(spans, map[string]string{"d": "b"})
	want := map[string]float64{"root": 60, "a": 14, "a1": 6, "b": 30 - 8 - 10, "w": 8, "d": 10}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("self(%s) = %v, want %v", name, got[name], v)
		}
	}
	// A layer's estimate never goes below zero.
	got = selfTimes(spans, map[string]string{"d": "a1"})
	if got["a1"] != 0 {
		t.Errorf("self(a1) = %v, want floor 0", got["a1"])
	}
	// A descheduled sample counts at most sampledCap times its name's
	// median: three 1-ns samples and one of 1000 ns, weight 2.
	var samples []span
	for i, d := range []int64{1, 1, 1, 1000} {
		samples = append(samples, span{ID: uint64(i + 1), Name: "x", Start: 0, End: d, Weight: 2})
	}
	if got := selfTimes(samples, nil)["x"]; got != 2*(3+sampledCap) {
		t.Errorf("self(x) = %v, want %v", got, 2*(3+sampledCap))
	}
}

// TestOpenLoopStall drives the open-loop sender against a handler that
// stalls one request: the stall must be charged to the requests queued
// behind it (latency from their due time), not hidden as generator
// lateness.
func TestOpenLoopStall(t *testing.T) {
	const (
		gap   = 5 * time.Millisecond
		stall = 60 * time.Millisecond
		n     = 30
		slow  = 5
	)
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1) == slow+1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"mode":"static"}`))
	}))
	defer srv.Close()
	i := 0
	next := func() (request, bool) {
		i++
		return request{due: time.Duration(i) * gap}, i <= n
	}
	out := sender(newConn(), srv.URL, nil, time.Now(), next, n, 0).outs
	if len(out) != n {
		t.Fatalf("%d outcomes, want %d", len(out), n)
	}

	for i, o := range out {
		if !o.ok {
			t.Fatalf("request %d failed", i)
		}
		if o.late > stall/2 {
			t.Errorf("request %d: the stall leaked into generator lateness (%v)", i, o.late)
		}
	}
	if out[slow].latency < stall {
		t.Errorf("stalled request latency %v < stall %v", out[slow].latency, stall)
	}
	// Requests due during the stall waited for it: at least the rest of
	// the stall after their due time.
	for j := 1; time.Duration(j)*gap < stall; j++ {
		min := stall - time.Duration(j)*gap
		if got := out[slow+j].latency; got < min {
			t.Errorf("request due %v after the stalled one: latency %v, want >= %v", time.Duration(j)*gap, got, min)
		}
	}
	// Long after the stall the backlog is gone.
	if got := out[n-1].latency; got > stall/2 {
		t.Errorf("last request latency %v: backlog never drained", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile([]float64{1, 2}, 0.25); q != 1.25 {
		t.Errorf("q25 = %v", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}
