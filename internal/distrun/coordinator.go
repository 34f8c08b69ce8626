package distrun

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"reskit/internal/engine"
	"reskit/internal/obs"
)

// Coordinator defaults.
const (
	// DefaultLeaseTTL is the heartbeat deadline: a lease with no
	// heartbeat or result for this long is presumed lost and requeued.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultTargetLease is the wall time a lease should roughly take;
	// batch sizes are fitted to it from the observed per-job latency.
	DefaultTargetLease = 2 * time.Second
	// DefaultMaxLease caps a batch regardless of how fast jobs look.
	DefaultMaxLease = 256
	// DefaultJobAttempts is the coordinator-side budget of permanent
	// failure reports per job before the job is given up (each report
	// already represents a full worker-side retry budget).
	DefaultJobAttempts = 3
	// DefaultWaitRetry is the pause StatusWait asks an idle worker for.
	DefaultWaitRetry = 200 * time.Millisecond
)

// CoordinatorConfig describes the run the coordinator owns. It is the
// distributed twin of engine.Spec: same identity triple (fingerprint,
// seed, job count), same checkpoint layer, same restore validation —
// the two sides share snapshot files interchangeably.
type CoordinatorConfig struct {
	NumJobs     int
	Seed        uint64
	Fingerprint uint64

	// Checkpoint configures the coordinator's durable ledger
	// (internal/ckpt, KindJobs — the exact format engine.Run writes, so
	// a local run can resume a distributed snapshot and vice versa).
	Checkpoint engine.Checkpoint

	// Check, when set, validates every payload before the ledger trusts
	// it — restored payloads at startup (a failure aborts construction,
	// as in engine.Run) and submitted payloads at arrival (a failure
	// counts as a failure report against the job, never poisons the
	// ledger).
	Check func(job int, payload []byte) error

	// JobName labels a job in errors (nil: "job<i>").
	JobName func(job int) string

	// JobAttempts is the permanent-failure budget per job: a job
	// reported permanently failed by workers this many times is given
	// up (KeepGoing decides how). Lease expiries never count — a missed
	// heartbeat is not proof of death, and requeue is free.
	JobAttempts int

	// KeepGoing records given-up jobs in the result (engine.JobError,
	// nil payload slot, absent from the snapshot so a resume retries
	// exactly them) instead of failing the run — the engine's degraded
	// mode, stretched across machines.
	KeepGoing bool

	LeaseTTL    time.Duration // heartbeat deadline (default DefaultLeaseTTL)
	TargetLease time.Duration // batch-sizing target (default DefaultTargetLease)
	MinLease    int           // batch floor (default 1)
	MaxLease    int           // batch cap (default DefaultMaxLease)
	WaitRetry   time.Duration // StatusWait pause (default DefaultWaitRetry)

	Log      io.Writer     // resume fallbacks and warnings (nil discards)
	Reg      *obs.Registry // binds the "distrun.*" instruments (nil disables)
	Progress *obs.Progress // ticked once per resolved job
}

// jobState is one slot of the coordinator's ledger.
type jobState uint8

const (
	statePending jobState = iota // waiting in the queue
	stateLeased                  // handed to a live lease
	stateDone                    // payload committed
	stateFailed                  // given up (keep-going)
)

// lease is one outstanding batch.
type lease struct {
	id       uint64
	worker   string
	jobs     []int
	issued   time.Time
	deadline time.Time
}

// Coordinator owns the job ledger of one distributed run: it grants
// leases, tracks heartbeats, requeues what expires, deduplicates what
// arrives twice, commits payloads to the durable snapshot, and declares
// the run over. All HTTP handlers and Wait share one mutex — the
// protocol messages are small and the payload work happens on the
// workers, so the ledger is never the bottleneck.
type Coordinator struct {
	cfg  CoordinatorConfig
	logw io.Writer

	// led holds the payloads, counts, given-up jobs and durable
	// snapshot — the same ledger engine.Run keeps — guarded by mu.
	led *engine.Ledger

	mu          sync.Mutex
	state       []jobState
	failReports []int
	queue       []int
	leases      map[uint64]*lease
	nextLease   uint64
	workers     map[string]time.Time
	ewmaNS      float64
	fatal       error
	stopped     bool

	finishOnce sync.Once
	finished   chan struct{}

	leasesIssued, leasesExpired, jobsRequeued, jobsRetried *obs.Counter
	jobsCompleted, jobsRestoredC, dupResults               *obs.Counter
	failureReports, jobsFailed, jobsUnfailed, heartbeats   *obs.Counter
	workersLive, leaseBatch, jobNSEwma                     *obs.Gauge
}

// NewCoordinator builds the ledger, restoring completed jobs from the
// snapshot when Checkpoint.Resume is set (through engine.OpenLedger, so
// with the same generation fallback and payload validation as
// engine.Run).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.NumJobs <= 0 {
		return nil, fmt.Errorf("distrun: NumJobs must be positive, got %d", cfg.NumJobs)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.TargetLease <= 0 {
		cfg.TargetLease = DefaultTargetLease
	}
	if cfg.MinLease < 1 {
		cfg.MinLease = 1
	}
	if cfg.MaxLease < cfg.MinLease {
		cfg.MaxLease = DefaultMaxLease
		if cfg.MaxLease < cfg.MinLease {
			cfg.MaxLease = cfg.MinLease
		}
	}
	if cfg.JobAttempts <= 0 {
		cfg.JobAttempts = DefaultJobAttempts
	}
	if cfg.WaitRetry <= 0 {
		cfg.WaitRetry = DefaultWaitRetry
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}

	n := cfg.NumJobs
	c := &Coordinator{
		cfg:         cfg,
		logw:        logw,
		state:       make([]jobState, n),
		failReports: make([]int, n),
		leases:      make(map[uint64]*lease),
		workers:     make(map[string]time.Time),
		finished:    make(chan struct{}),

		leasesIssued:   cfg.Reg.Counter("distrun.leases_issued"),
		leasesExpired:  cfg.Reg.Counter("distrun.leases_expired"),
		jobsRequeued:   cfg.Reg.Counter("distrun.jobs_requeued"),
		jobsRetried:    cfg.Reg.Counter("distrun.jobs_retried"),
		jobsCompleted:  cfg.Reg.Counter("distrun.jobs_completed"),
		jobsRestoredC:  cfg.Reg.Counter("distrun.jobs_restored"),
		dupResults:     cfg.Reg.Counter("distrun.results_duplicate"),
		failureReports: cfg.Reg.Counter("distrun.failure_reports"),
		jobsFailed:     cfg.Reg.Counter("distrun.jobs_failed"),
		jobsUnfailed:   cfg.Reg.Counter("distrun.jobs_unfailed"),
		heartbeats:     cfg.Reg.Counter("distrun.heartbeats"),
		workersLive:    cfg.Reg.Gauge("distrun.workers_live"),
		leaseBatch:     cfg.Reg.Gauge("distrun.lease_batch"),
		jobNSEwma:      cfg.Reg.Gauge("distrun.job_ns_ewma"),
	}
	cfg.Reg.Gauge("distrun.jobs_total").Set(float64(n))

	led, err := engine.OpenLedger(engine.LedgerSpec{
		NumJobs:     n,
		Seed:        cfg.Seed,
		Fingerprint: cfg.Fingerprint,
		Checkpoint:  cfg.Checkpoint,
		Check:       cfg.Check,
		JobName:     c.jobName,
		Log:         logw,
		Reg:         cfg.Reg,
	})
	if err != nil {
		return nil, fmt.Errorf("distrun: %w", err)
	}
	c.led = led
	c.jobsRestoredC.Add(int64(led.Restored()))
	cfg.Progress.Add(int64(led.Restored()))

	c.queue = make([]int, 0, n-led.Restored())
	for i := 0; i < n; i++ {
		if led.Recorded(i) {
			c.state[i] = stateDone
		} else {
			c.queue = append(c.queue, i)
		}
	}
	return c, nil
}

// jobName labels job i for errors.
func (c *Coordinator) jobName(i int) string {
	if c.cfg.JobName != nil {
		return c.cfg.JobName(i)
	}
	return fmt.Sprintf("job%d", i)
}

// Stats is a point-in-time ledger summary.
type Stats struct {
	Done     int // jobs with a committed payload (restored included)
	Restored int
	Failed   int // jobs given up under keep-going
	Pending  int // queued, waiting for a lease
	Leased   int // out on live leases
	Workers  int // workers heard from at least once
}

// Stats snapshots the ledger.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Done: c.led.Done(), Restored: c.led.Restored(), Failed: c.led.Failed(), Workers: len(c.workers)}
	for _, st := range c.state {
		switch st {
		case statePending:
			s.Pending++
		case stateLeased:
			s.Leased++
		}
	}
	return s
}

// Handler returns the coordinator's protocol mux (lease, heartbeat,
// result, healthz). The caller mounts it on a hardened listener
// (internal/httpd) and may add /metrics beside it.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathResult, c.handleResult)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// checkID guards the ledger against a worker from a different run.
func (c *Coordinator) checkID(id RunID) error {
	switch {
	case uint64(id.Fingerprint) != c.cfg.Fingerprint:
		return fmt.Errorf("distrun: worker fingerprint %016x, run fingerprint %016x (different flags, or another sampler version)",
			uint64(id.Fingerprint), c.cfg.Fingerprint)
	case uint64(id.Seed) != c.cfg.Seed:
		return fmt.Errorf("distrun: worker seed %016x, run seed %016x", uint64(id.Seed), c.cfg.Seed)
	case id.NumJobs != c.cfg.NumJobs:
		return fmt.Errorf("distrun: worker has %d jobs, run has %d", id.NumJobs, c.cfg.NumJobs)
	}
	return nil
}

// runOverLocked reports whether no further leases should be granted.
// The >= is a backstop: done and failed are kept disjoint (a late
// success evicts the job from the failed set), so equality is the
// expected trigger, but a counting bug must never leave Wait hanging.
func (c *Coordinator) runOverLocked() bool {
	return c.stopped || c.fatal != nil || c.led.Done()+c.led.Failed() >= c.cfg.NumJobs
}

// maybeFinishLocked wakes Wait when the run is over.
func (c *Coordinator) maybeFinishLocked() {
	if c.fatal != nil || c.led.Done()+c.led.Failed() >= c.cfg.NumJobs {
		c.finishOnce.Do(func() { close(c.finished) })
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := c.checkID(req.RunID); err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.workers[req.Worker] = now
	if c.runOverLocked() {
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusDone})
		return
	}
	batch := leaseSize(c.ewmaNS, c.cfg.TargetLease, c.cfg.MinLease, c.cfg.MaxLease)
	c.leaseBatch.Set(float64(batch))
	jobs := c.popPendingLocked(batch)
	if len(jobs) == 0 {
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusWait, RetryMS: c.cfg.WaitRetry.Milliseconds()})
		return
	}
	c.nextLease++
	l := &lease{id: c.nextLease, worker: req.Worker, jobs: jobs, issued: now, deadline: now.Add(c.cfg.LeaseTTL)}
	c.leases[l.id] = l
	c.leasesIssued.Inc()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, LeaseResponse{
		Status: StatusLease, Lease: l.id, Jobs: jobs, TTLMS: c.cfg.LeaseTTL.Milliseconds(),
	})
}

// popPendingLocked dequeues up to n jobs that are still pending —
// stale queue entries (jobs resolved by a late result while requeued)
// are skipped and dropped.
func (c *Coordinator) popPendingLocked(n int) []int {
	var jobs []int
	for len(jobs) < n && len(c.queue) > 0 {
		j := c.queue[0]
		c.queue = c.queue[1:]
		if c.state[j] != statePending {
			continue
		}
		c.state[j] = stateLeased
		jobs = append(jobs, j)
	}
	return jobs
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.workers[req.Worker] = now
	c.heartbeats.Inc()
	l, ok := c.leases[req.Lease]
	if ok {
		l.deadline = now.Add(c.cfg.LeaseTTL)
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: ok, TTLMS: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := c.checkID(req.RunID); err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	for _, jr := range req.Results {
		if jr.Job < 0 || jr.Job >= c.cfg.NumJobs {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("distrun: job index %d out of %d", jr.Job, c.cfg.NumJobs)})
			return
		}
	}
	for _, jf := range req.Failed {
		if jf.Job < 0 || jf.Job >= c.cfg.NumJobs {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("distrun: job index %d out of %d", jf.Job, c.cfg.NumJobs)})
			return
		}
	}

	now := time.Now()
	c.mu.Lock()
	c.workers[req.Worker] = now
	var resp ResultResponse
	for _, jr := range req.Results {
		if c.state[jr.Job] == stateDone {
			// A requeued job finished twice, or a retried submission
			// landed twice: the payloads are identical by construction,
			// the ledger keeps the first.
			resp.Duplicate++
			c.dupResults.Inc()
			continue
		}
		if c.stopped {
			// Wait has returned and the final snapshot is flushed (or
			// flushing): accepting now would mutate a result the caller
			// already holds. The job stays incomplete; a resumed
			// coordinator will re-issue it.
			continue
		}
		if c.cfg.Check != nil {
			if err := c.cfg.Check(jr.Job, jr.Payload); err != nil {
				// A given-up job stays given up — another failure report
				// would re-enter recordFailureLocked's terminal branch
				// and double-book the job.
				if c.state[jr.Job] != stateFailed {
					c.recordFailureLocked(jr.Job, 1, fmt.Errorf("payload rejected: %w", err))
				}
				continue
			}
		}
		if c.state[jr.Job] == stateFailed {
			// Reachable under at-least-once delivery: late failure
			// reports from expired leases exhausted the budget while a
			// requeued copy was still leased to a healthy worker that
			// then succeeded. The payload wins — evict the job from the
			// failed set so done and failed stay disjoint and the run
			// can still finish exactly.
			c.led.Unfail(jr.Job)
			c.jobsUnfailed.Inc()
			fmt.Fprintf(c.logw, "distrun: job %d (%s) succeeded after being given up; failure withdrawn\n",
				jr.Job, c.jobName(jr.Job))
		}
		c.acceptLocked(jr.Job, jr.Payload)
		resp.Accepted++
	}
	for _, jf := range req.Failed {
		if c.stopped || c.state[jf.Job] == stateDone || c.state[jf.Job] == stateFailed {
			continue
		}
		c.recordFailureLocked(jf.Job, jf.Attempts, errors.New(jf.Error))
	}
	if l, ok := c.leases[req.Lease]; ok {
		c.observeLeaseLocked(l, now)
		// Whatever the submission did not resolve goes back to the
		// queue — a worker that drained early still returns its lease.
		for _, j := range l.jobs {
			if c.state[j] == stateLeased {
				c.state[j] = statePending
				c.queue = append(c.queue, j)
				c.jobsRequeued.Inc()
			}
		}
		delete(c.leases, req.Lease)
	}
	resp.Done = c.runOverLocked()
	c.maybeFinishLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// acceptLocked commits one fresh payload to the ledger and the durable
// snapshot.
func (c *Coordinator) acceptLocked(job int, payload []byte) {
	c.led.Record(job, payload)
	c.state[job] = stateDone
	c.jobsCompleted.Inc()
	c.cfg.Progress.Add(1)
}

// recordFailureLocked books one permanent-failure report against a job:
// below the budget the job is requeued for another worker, at the
// budget it is given up — into Result.Failed under KeepGoing, into a
// fatal run error otherwise.
func (c *Coordinator) recordFailureLocked(job, attempts int, err error) {
	c.failureReports.Inc()
	c.failReports[job]++
	if c.failReports[job] < c.cfg.JobAttempts {
		if c.state[job] == stateLeased {
			c.state[job] = statePending
			c.queue = append(c.queue, job)
		}
		c.jobsRetried.Inc()
		return
	}
	c.state[job] = stateFailed
	c.jobsFailed.Inc()
	je := &engine.JobError{Job: job, Name: c.jobName(job), Attempts: c.failReports[job] * maxInt(attempts, 1), Err: err}
	if c.cfg.KeepGoing {
		c.led.Fail(je)
		return
	}
	if c.fatal == nil {
		c.fatal = fmt.Errorf("distrun: giving up after %d permanent worker reports: %w", c.failReports[job], je)
	}
}

// observeLeaseLocked feeds the cost model: the lease's wall time per
// job updates the EWMA that sizes future batches, and the per-worker
// throughput gauge.
func (c *Coordinator) observeLeaseLocked(l *lease, now time.Time) {
	elapsed := now.Sub(l.issued)
	if elapsed <= 0 || len(l.jobs) == 0 {
		return
	}
	per := float64(elapsed.Nanoseconds()) / float64(len(l.jobs))
	if c.ewmaNS == 0 {
		c.ewmaNS = per
	} else {
		c.ewmaNS = ewmaAlpha*per + (1-ewmaAlpha)*c.ewmaNS
	}
	c.jobNSEwma.Set(c.ewmaNS)
	if secs := elapsed.Seconds(); secs > 0 {
		c.cfg.Reg.Gauge(workerRateGauge(l.worker)).Set(float64(len(l.jobs)) / secs)
	}
}

// workerRateGauge names the per-worker throughput gauge. The worker
// segment is remote-supplied, so every registration must be paired with
// the removal in reapLocked — otherwise worker churn grows the registry
// without bound.
func workerRateGauge(worker string) string {
	return "distrun.worker_jobs_per_sec." + worker
}

// ewmaAlpha weights the newest lease observation in the latency EWMA.
const ewmaAlpha = 0.3

// leaseSize fits a batch to the target lease wall time from the
// per-job latency estimate; with no estimate yet it starts at the
// floor, so the first observation arrives quickly.
func leaseSize(ewmaNS float64, target time.Duration, min, max int) int {
	if ewmaNS <= 0 {
		return min
	}
	n := int(float64(target.Nanoseconds()) / ewmaNS)
	if n < min {
		return min
	}
	if n > max {
		return max
	}
	return n
}

// reapLocked expires overdue leases (requeueing their unresolved jobs)
// and refreshes the worker-liveness gauge.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		for _, j := range l.jobs {
			if c.state[j] == stateLeased {
				c.state[j] = statePending
				c.queue = append(c.queue, j)
				c.jobsRequeued.Inc()
			}
		}
		delete(c.leases, id)
		c.leasesExpired.Inc()
		fmt.Fprintf(c.logw, "distrun: lease %d (worker %s) expired; %d jobs requeued\n", id, l.worker, len(l.jobs))
	}
	live := 0
	for w, t := range c.workers {
		age := now.Sub(t)
		switch {
		case age <= 2*c.cfg.LeaseTTL:
			live++
		case age > 10*c.cfg.LeaseTTL:
			delete(c.workers, w)
			c.cfg.Reg.RemoveGauge(workerRateGauge(w))
		}
	}
	c.workersLive.Set(float64(live))
}

// Wait blocks until every job is resolved, a job exhausts its budget
// without KeepGoing, or ctx is cancelled, then settles the ledger
// exactly as engine.Run does (engine.Ledger.Close): ctx.Err() after an
// interruption (the partial result is valid and the snapshot
// resumable), a joined multi-error of engine.JobError values after a
// degraded keep-going run, an engine.SnapshotError joined in when the
// final snapshot could not be persisted, the fatal job error otherwise.
// After Wait returns, lease requests answer StatusDone, so surviving
// workers drain and exit cleanly.
func (c *Coordinator) Wait(ctx context.Context) (*engine.Result, error) {
	reap := c.cfg.LeaseTTL / 4
	if reap > 250*time.Millisecond {
		reap = 250 * time.Millisecond
	}
	if reap < 5*time.Millisecond {
		reap = 5 * time.Millisecond
	}
	tick := time.NewTicker(reap)
	defer tick.Stop()
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-c.finished:
			break loop
		case <-tick.C:
			c.mu.Lock()
			c.reapLocked(time.Now())
			c.maybeFinishLocked()
			c.mu.Unlock()
		}
	}

	// Once stopped, no handler touches the ledger again: late results
	// are dropped, and a resumed coordinator re-issues their jobs.
	c.mu.Lock()
	c.stopped = true
	fatal := c.fatal
	c.mu.Unlock()
	return c.led.Close(ctx, fatal)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- HTTP plumbing ----------------------------------------------------

type errorBody struct {
	Error string `json:"error"`
}

// decodeInto enforces POST + size limits and decodes the JSON body.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return false
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		} else {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("distrun: bad request JSON: %v", err)})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}
