// Package serve is the sharded multi-tenant sweep service behind bpserve: a
// long-running daemon that accepts sweep jobs over the versioned HTTP job
// API (branchsim/serveapi), expands each job into (workload × input ×
// predictor × scheme) arms, and shards the arms across a bounded worker
// pool backed by one shared experiment.Harness.
//
// The harness is the sharing boundary: identical arms are deduplicated
// *across jobs and tenants* by the harness's singleflight and checkpoint
// sha256 keys, and the capture-once replay engine's (workload, input)
// traces are shared between tenants — two concurrent jobs touching the same
// workload trigger exactly one instrumented execution. Attaching the daemon
// never changes results: arm metrics and journal bytes are identical to an
// offline run of the same arms.
//
// Admission control is load shedding, not queueing: a tenant over its
// in-flight job quota, a job over the arm quota, or a draining daemon gets
// a typed *serveapi.Error immediately instead of waiting unboundedly.
//
// Job lifecycle flows through the obs event bus as live-only JobRecords, so
// /metrics (the serve.* series), /events and the embedded dashboard show
// cross-job progress without perturbing the journal.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"branchsim/internal/core"
	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/sim"
	"branchsim/internal/workload"
	"branchsim/serveapi"
)

// Defaults for Config's zero fields.
const (
	// DefaultMaxTenantJobs bounds one tenant's in-flight jobs.
	DefaultMaxTenantJobs = 4
	// DefaultMaxArmsPerJob bounds one job's expanded grid.
	DefaultMaxArmsPerJob = 1024
)

// Config assembles a Server. Harness is the one required field: the caller
// builds it (replay engine, checkpoint, observer, telemetry) and keeps
// ownership — the server only schedules work onto it.
type Config struct {
	// Harness runs the arms; its caches are what make the daemon
	// multi-tenant-efficient. Required.
	Harness *experiment.Harness
	// Obs receives job lifecycle records (live bus) and the serve.* metric
	// series. Nil disables observation; results are unchanged.
	Obs *obs.Observer
	// Workers bounds concurrently executing arms across all jobs
	// (<= 0: GOMAXPROCS).
	Workers int
	// MaxTenantJobs bounds one tenant's in-flight jobs
	// (<= 0: DefaultMaxTenantJobs).
	MaxTenantJobs int
	// MaxArmsPerJob bounds one job's expanded grid
	// (<= 0: DefaultMaxArmsPerJob).
	MaxArmsPerJob int
	// Lookup resolves workload names at admission (nil: workload.Get).
	// Tests substitute gate programs here; the harness has its own hook for
	// execution.
	Lookup func(name string) (workload.Program, error)
}

// Server is the daemon's core: a job registry over a shared harness.
// Safe for concurrent use.
type Server struct {
	harness       *experiment.Harness
	obs           *obs.Observer
	sem           chan struct{}
	maxTenantJobs int
	maxArmsPerJob int
	lookup        func(name string) (workload.Program, error)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight map[string]int // tenant → jobs not yet terminal
	tenants  map[string]*tenantStats
	nextID   uint64
	draining bool

	closeOnce sync.Once
}

// job is one admitted sweep job. Its mutable state is guarded by mu; the
// arms slice itself is fixed at admission (only element fields change).
type job struct {
	mu sync.Mutex

	id, tenant, name string
	state            string
	arms             []serveapi.ArmResult
	done, failed     int
	cancelled        int // arms that never settled because the job was cancelled
	firstErr         string

	cancel context.CancelFunc
	doneCh chan struct{}

	// created is the admission instant (job latency measures from here);
	// span is the job's trace span and traceID its trace, when the
	// observer traces.
	created time.Time
	span    *obs.Span
	traceID string
}

// tenantStats is one tenant's attribution ledger, guarded by Server.mu. It
// backs the /api/v1/tenants summary; the per-tenant serve.tenant.* metric
// families mirror it at /metrics.
type tenantStats struct {
	jobs, jobsDone, jobsFailed, jobsCancelled uint64
	shed                                      uint64
	armsRun, armsFailed, armsSaved            uint64
	branches                                  uint64
	latCount                                  uint64
	latTotal, latMax                          time.Duration
}

// New builds a Server over cfg. Call Drain (or Close) before discarding it.
func New(cfg Config) (*Server, error) {
	if cfg.Harness == nil {
		return nil, fmt.Errorf("serve: Config.Harness is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxJobs := cfg.MaxTenantJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxTenantJobs
	}
	maxArms := cfg.MaxArmsPerJob
	if maxArms <= 0 {
		maxArms = DefaultMaxArmsPerJob
	}
	lookup := cfg.Lookup
	if lookup == nil {
		lookup = workload.Get
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		harness:       cfg.Harness,
		obs:           cfg.Obs,
		sem:           make(chan struct{}, workers),
		maxTenantJobs: maxJobs,
		maxArmsPerJob: maxArms,
		lookup:        lookup,
		ctx:           ctx,
		cancel:        cancel,
		jobs:          map[string]*job{},
		inflight:      map[string]int{},
		tenants:       map[string]*tenantStats{},
	}, nil
}

// Submit validates, admits and starts one job, returning its
// acknowledgement. Failures are typed *serveapi.Error values: validation
// failures name the offending token (CodeBadSpec), admission failures say
// which quota was exhausted (CodeQuotaJobs, CodeQuotaArms) or that the
// daemon is draining (CodeDraining). Submit never queues: an admitted job
// is running, a refused job is the client's to resubmit elsewhere. ctx is
// the submission's request scope: when it carries a trace span (the HTTP
// handler opens one per request), the job's span becomes its child and the
// acknowledgement carries the trace ID.
func (s *Server) Submit(ctx context.Context, spec *serveapi.JobSpec) (*serveapi.Submitted, error) {
	if err := spec.Normalize(); err != nil {
		return nil, serveapi.Errorf(serveapi.CodeBadSpec, "%v", err)
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	// Validate the non-predictor grid dimensions up front, so a bad
	// workload name is a submission error, not N failed arms.
	for _, wl := range spec.Workloads {
		if _, err := s.lookup(wl); err != nil {
			return nil, serveapi.Errorf(serveapi.CodeBadSpec, "%v", err)
		}
	}
	for _, in := range spec.Inputs {
		if !validInput(in) {
			return nil, serveapi.Errorf(serveapi.CodeBadSpec,
				"unknown input %q (accepted: %v)", in, workload.Inputs())
		}
	}
	for _, sch := range spec.Schemes {
		if sch == "none" {
			continue
		}
		if _, err := core.SelectorByName(sch); err != nil {
			return nil, serveapi.Errorf(serveapi.CodeBadSpec, "%v", err)
		}
	}
	arms := spec.Arms()
	if len(arms) > s.maxArmsPerJob {
		s.shed(tenant)
		return nil, serveapi.Errorf(serveapi.CodeQuotaArms,
			"job expands to %d arms, quota is %d per job; split the grid", len(arms), s.maxArmsPerJob)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shed(tenant)
		return nil, serveapi.Errorf(serveapi.CodeDraining, "daemon is draining; resubmit to its replacement")
	}
	if s.inflight[tenant] >= s.maxTenantJobs {
		n := s.inflight[tenant]
		s.mu.Unlock()
		s.shed(tenant)
		return nil, serveapi.Errorf(serveapi.CodeQuotaJobs,
			"tenant %q has %d jobs in flight, quota is %d; wait for one to finish", tenant, n, s.maxTenantJobs)
	}
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextID),
		tenant:  tenant,
		name:    spec.Name,
		state:   serveapi.StateQueued,
		arms:    make([]serveapi.ArmResult, len(arms)),
		doneCh:  make(chan struct{}),
		created: time.Now(),
	}
	for i, a := range arms {
		j.arms[i] = serveapi.ArmResult{Arm: a, State: serveapi.ArmPending}
	}
	jctx, jcancel := context.WithCancel(s.ctx)
	j.cancel = jcancel
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.inflight[tenant]++
	s.tenantLocked(tenant).jobs++
	s.wg.Add(1)
	s.mu.Unlock()

	// The job's span is a child of the submission request's span: the job
	// context descends from the server context (so jobs outlive their
	// submission connection) but carries the request's trace lineage.
	if sc, ok := obs.SpanFromContext(ctx); ok {
		jctx = obs.ContextWithSpan(jctx, sc)
	}
	j.span, jctx = s.obs.StartSpan(jctx, "job")
	j.span.SetTenant(tenant)
	j.span.SetJob(j.id)
	j.traceID = j.span.Context().TraceID

	s.obs.Counter(obs.MServeJobsSubmitted).Add(1)
	s.obs.TenantCounter(obs.MTenantJobs, tenant).Add(1)
	s.obs.Gauge(obs.MServeJobsRunning).Add(1)
	s.obs.Gauge(obs.MServeArmsPending).Add(int64(len(arms)))
	s.publish(j)
	go s.runJob(jctx, j)

	ack := &serveapi.Submitted{ID: j.id, Arms: len(arms), TraceID: j.traceID}
	ack.Stamp()
	return ack, nil
}

// shed records one load-shedding rejection, globally and per tenant.
func (s *Server) shed(tenant string) {
	s.obs.Counter(obs.MServeJobsRejected).Add(1)
	s.obs.TenantCounter(obs.MTenantShed, tenant).Add(1)
	s.mu.Lock()
	s.tenantLocked(tenant).shed++
	s.mu.Unlock()
}

// tenantLocked returns tenant's stats ledger, creating it on first use.
// Caller holds s.mu.
func (s *Server) tenantLocked(tenant string) *tenantStats {
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[tenant] = ts
	}
	return ts
}

// validInput accepts the standard workload input names.
func validInput(in string) bool {
	for _, k := range workload.Inputs() {
		if in == k {
			return true
		}
	}
	return false
}

// runJob shards one job's arms across the server-wide worker pool and
// settles the job's terminal state.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	j.mu.Lock()
	j.state = serveapi.StateRunning
	j.mu.Unlock()
	s.publish(j)

	queueWait := s.obs.Histogram(obs.MServeQueueWait)
	var arms sync.WaitGroup
	for i := range j.arms {
		// Respect cancellation while waiting for a pool slot: a cancelled
		// job's pending arms never run at all.
		queued := time.Now()
		select {
		case <-ctx.Done():
		case s.sem <- struct{}{}:
			wait := time.Since(queued)
			queueWait.Observe(wait)
			arms.Add(1)
			go func(i int) {
				defer func() { <-s.sem; arms.Done() }()
				s.runArm(ctx, j, i, queued)
			}(i)
			continue
		}
		s.settleArm(j, i, sim.Metrics{}, "", ctx.Err())
	}
	arms.Wait()

	j.mu.Lock()
	switch {
	case j.cancelled > 0:
		j.state = serveapi.StateCancelled
	case j.failed > 0:
		j.state = serveapi.StateFailed
	default:
		j.state = serveapi.StateDone
	}
	state := j.state
	j.mu.Unlock()

	switch state {
	case serveapi.StateDone:
		s.obs.Counter(obs.MServeJobsDone).Add(1)
	case serveapi.StateFailed:
		s.obs.Counter(obs.MServeJobsFailed).Add(1)
	default:
		s.obs.Counter(obs.MServeJobsCancelled).Add(1)
	}
	s.obs.Gauge(obs.MServeJobsRunning).Add(-1)

	lat := time.Since(j.created)
	s.obs.Histogram(obs.MServeJobLatency).Observe(lat)
	s.obs.TenantHistogram(obs.MTenantJobLatency, j.tenant).Observe(lat)
	s.mu.Lock()
	s.inflight[j.tenant]--
	ts := s.tenantLocked(j.tenant)
	switch state {
	case serveapi.StateDone:
		ts.jobsDone++
	case serveapi.StateFailed:
		ts.jobsFailed++
	default:
		ts.jobsCancelled++
	}
	ts.latCount++
	ts.latTotal += lat
	if lat > ts.latMax {
		ts.latMax = lat
	}
	s.mu.Unlock()

	var jerr error
	if state == serveapi.StateFailed {
		j.mu.Lock()
		jerr = errors.New(j.firstErr)
		j.mu.Unlock()
	}
	j.span.End(jerr)
	s.publish(j)
	close(j.doneCh)
}

// runArm executes one arm on the shared harness and settles its result.
// The arm entered the pool queue at queued; its span starts there and
// records everything up to now as a queue_wait phase, so a trace waterfall
// shows contention, not just compute.
func (s *Server) runArm(ctx context.Context, j *job, i int, queued time.Time) {
	a := j.arms[i].Arm
	j.mu.Lock()
	j.arms[i].State = serveapi.ArmRunning
	j.mu.Unlock()
	aspan, actx := s.obs.StartSpan(ctx, "arm")
	aspan.SetStart(queued)
	aspan.SetTenant(j.tenant)
	aspan.SetJob(j.id)
	aspan.SetKey(a.Key())
	aspan.AddPhase(obs.PhaseQueue, time.Since(queued))
	m, src, err := s.harness.RunAttributed(actx, experiment.Arm{
		Workload: a.Workload,
		Input:    a.Input,
		Pred:     a.Predictor,
		Scheme:   a.Scheme,
	})
	aspan.SetSource(src)
	aspan.End(err)
	s.settleArm(j, i, m, src, err)
}

// settleArm records one arm's outcome and publishes the job's progress. A
// cancellation is not a failure: the arm goes back to pending — it produced
// no result and a resubmitted job will run it (or recall it from the
// checkpoint, if it finished on a previous daemon).
func (s *Server) settleArm(j *job, i int, m sim.Metrics, src string, err error) {
	j.mu.Lock()
	switch {
	case errors.Is(err, context.Canceled):
		j.arms[i].State = serveapi.ArmPending
		j.cancelled++
	case err != nil:
		j.arms[i].State = serveapi.ArmFailed
		j.arms[i].Error = err.Error()
		j.failed++
		if j.firstErr == "" {
			j.firstErr = fmt.Sprintf("%s: %v", j.arms[i].Key(), err)
		}
	default:
		wm := wireMetrics(m)
		j.arms[i].State = serveapi.ArmDone
		j.arms[i].Metrics = &wm
		j.done++
	}
	j.mu.Unlock()
	switch {
	case errors.Is(err, context.Canceled):
	case err != nil:
		s.obs.Counter(obs.MServeArmsFailed).Add(1)
		s.obs.TenantCounter(obs.MTenantArmsRun, j.tenant).Add(1)
		s.mu.Lock()
		ts := s.tenantLocked(j.tenant)
		ts.armsRun++
		ts.armsFailed++
		s.mu.Unlock()
	default:
		s.obs.Counter(obs.MServeArmsDone).Add(1)
		s.obs.TenantCounter(obs.MTenantArmsRun, j.tenant).Add(1)
		s.obs.TenantCounter(obs.MTenantBranches, j.tenant).Add(m.Branches)
		saved := src == obs.SourceCheckpoint || src == obs.SourceSingleflight
		if saved {
			s.obs.TenantCounter(obs.MTenantArmsSaved, j.tenant).Add(1)
		}
		s.mu.Lock()
		ts := s.tenantLocked(j.tenant)
		ts.armsRun++
		ts.branches += m.Branches
		if saved {
			ts.armsSaved++
		}
		s.mu.Unlock()
	}
	s.obs.Gauge(obs.MServeArmsPending).Add(-1)
	s.publish(j)
}

// wireMetrics converts simulator metrics to their wire form, field for
// field — the daemon's results must be bit-identical to offline runs.
func wireMetrics(m sim.Metrics) serveapi.Metrics {
	return serveapi.Metrics{
		Instructions:      m.Instructions,
		Branches:          m.Branches,
		Taken:             m.TakenCount,
		Mispredicts:       m.Mispredicts,
		CollisionsTracked: m.CollisionsTracked,
		Collisions:        m.Collisions.Total,
		Constructive:      m.Collisions.Constructive,
		Destructive:       m.Collisions.Destructive,
	}
}

// publish mirrors one job snapshot to the live event bus. Live-only: job
// records never touch the journal, so daemon journals stay byte-identical
// to offline runs.
func (s *Server) publish(j *job) {
	if s.obs == nil {
		return
	}
	j.mu.Lock()
	rec := &obs.JobRecord{
		Time:       time.Now(),
		ID:         j.id,
		Tenant:     j.tenant,
		Name:       j.name,
		State:      j.state,
		ArmsTotal:  len(j.arms),
		ArmsDone:   j.done,
		ArmsFailed: j.failed,
		Error:      j.firstErr,
	}
	j.mu.Unlock()
	s.obs.Publish(rec)
}

// status snapshots one job. withArms includes the per-arm results.
func (j *job) status(withArms bool) *serveapi.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &serveapi.JobStatus{
		ID:         j.id,
		TraceID:    j.traceID,
		Tenant:     j.tenant,
		Name:       j.name,
		State:      j.state,
		ArmsTotal:  len(j.arms),
		ArmsDone:   j.done,
		ArmsFailed: j.failed,
		Error:      j.firstErr,
	}
	if withArms {
		st.Arms = make([]serveapi.ArmResult, len(j.arms))
		for i, a := range j.arms {
			if a.Metrics != nil {
				m := *a.Metrics
				a.Metrics = &m
			}
			st.Arms[i] = a
		}
	}
	st.Stamp()
	return st
}

// get finds a job by ID.
func (s *Server) get(id string) (*job, *serveapi.Error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, serveapi.Errorf(serveapi.CodeNotFound, "unknown job %q", id)
	}
	return j, nil
}

// Status returns one job's snapshot with per-arm results.
func (s *Server) Status(id string) (*serveapi.JobStatus, error) {
	j, aerr := s.get(id)
	if aerr != nil {
		return nil, aerr
	}
	return j.status(true), nil
}

// List returns summaries of every job, oldest first.
func (s *Server) List() *serveapi.JobList {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	out := &serveapi.JobList{Jobs: make([]serveapi.JobStatus, 0, len(ids))}
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j != nil {
			out.Jobs = append(out.Jobs, *j.status(false))
		}
	}
	return out
}

// Tenants summarizes every tenant's resource attribution, sorted by tenant
// name: jobs admitted and settled, load-shedding rejections, arms and
// simulated branches charged to the tenant, arms the capture cache or
// checkpoint store saved from recompute, and job-latency aggregates.
func (s *Server) Tenants() *serveapi.TenantList {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := &serveapi.TenantList{Tenants: make([]serveapi.TenantSummary, 0, len(names))}
	for _, name := range names {
		ts := s.tenants[name]
		sum := serveapi.TenantSummary{
			Tenant:        name,
			Jobs:          ts.jobs,
			JobsDone:      ts.jobsDone,
			JobsFailed:    ts.jobsFailed,
			JobsCancelled: ts.jobsCancelled,
			Shed:          ts.shed,
			ArmsRun:       ts.armsRun,
			ArmsFailed:    ts.armsFailed,
			ArmsSaved:     ts.armsSaved,
			Branches:      ts.branches,
			LatencyMaxMS:  float64(ts.latMax) / float64(time.Millisecond),
		}
		if ts.latCount > 0 {
			sum.LatencyMeanMS = float64(ts.latTotal) / float64(ts.latCount) / float64(time.Millisecond)
		}
		out.Tenants = append(out.Tenants, sum)
	}
	s.mu.Unlock()
	out.Stamp()
	return out
}

// Cancel stops a job's remaining arms cooperatively (running arms see their
// context end; pending arms never start) and returns the snapshot.
// Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (*serveapi.JobStatus, error) {
	j, aerr := s.get(id)
	if aerr != nil {
		return nil, aerr
	}
	j.cancel()
	return j.status(true), nil
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the server down gracefully: admission stops immediately
// (submissions get CodeDraining), in-flight arms keep running, and Drain
// returns when every job has settled. If ctx ends first, the remaining arms
// are cancelled cooperatively — the harness checkpoints every arm that
// completed, so a later daemon resumes the unfinished jobs' arms with zero
// recompute of finished work. Idempotent and safe to call concurrently.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Close is Drain with immediate cancellation: in-flight arms are stopped
// cooperatively and Close returns when they have drained. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.cancel()
	})
	s.wg.Wait()
}
