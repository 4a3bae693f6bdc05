package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/serve"
	"branchsim/serveapi"
)

// serveStack is one set-up daemon: a checkpointed harness, the job server
// behind serve.Handler on a loopback listener, and one client per tenant.
type serveStack struct {
	dir     string
	o       *obs.Observer
	h       *experiment.Harness
	s       *serve.Server
	srv     *obs.Server
	clients [2]*serveapi.Client
	hc      *http.Client
}

// setupServe builds the daemon the way bpserve does, in process, with its
// checkpoint under parent. It returns once the listener answers a request.
func setupServe(ctx context.Context, parent string) (*serveStack, error) {
	dir, err := os.MkdirTemp(parent, "checkpoint-")
	if err != nil {
		return nil, err
	}
	st := &serveStack{dir: dir}
	cp, err := experiment.OpenCheckpoint(dir)
	if err != nil {
		st.close()
		return nil, err
	}
	st.o = obs.New()
	st.h = experiment.NewQuickHarness(experiment.WithWorkers(drivers), experiment.WithObserver(st.o), experiment.WithCheckpoint(cp))
	st.s, err = serve.New(serve.Config{Harness: st.h, Obs: st.o, Workers: drivers})
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv, err = st.o.Serve("127.0.0.1:0", obs.WithRootHandler(serve.Handler(st.s, nil)))
	if err != nil {
		st.close()
		return nil, err
	}
	// A private transport per stack, so a round's idle connections are
	// closed with it and never reused against the next round's listener.
	st.hc = &http.Client{Transport: &http.Transport{}}
	base := "http://" + st.srv.Addr()
	for i, name := range tenantNames {
		st.clients[i] = serveapi.NewClient(base, serveapi.WithTenant(name), serveapi.WithHTTPClient(st.hc))
	}
	if _, err := st.clients[0].ListJobs(ctx); err != nil {
		st.close()
		return nil, fmt.Errorf("serve stack not ready: %w", err)
	}
	return st, nil
}

// close drains and stops everything the stack started.
func (st *serveStack) close() {
	if st.s != nil {
		st.s.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.hc != nil {
		st.hc.CloseIdleConnections()
	}
	if st.h != nil {
		st.h.Close()
	}
	if st.o != nil {
		st.o.Close()
	}
	os.RemoveAll(st.dir)
}

// roundSamples is what one serve round measured.
type roundSamples struct {
	wall     time.Duration
	jobMS    []float64
	armMS    []float64 // job latency divided by the job's arm count
	branches uint64
}

// tenantCall wraps every client call a tenant makes; traced runs time them.
type tenantCall func(name string, fn func() error) error

func untimed(_ string, fn func() error) error { return fn() }

// round drives one round: each tenant submits its jobs one after another,
// waiting for each before the next (a closed loop), both tenants at once.
// Every arm of every job is checked against the oracle; a refused, failed or
// wrong job is a failed op.
func (st *serveStack) round(ctx context.Context, jobs [2][]*serveapi.JobSpec, g *gate, call tenantCall) *roundSamples {
	rs := &roundSamples{}
	var mu sync.Mutex
	unique := map[string]uint64{}
	var wg sync.WaitGroup
	start := time.Now()
	for t := range jobs {
		wg.Add(1)
		go func(c *serveapi.Client, specs []*serveapi.JobSpec) {
			defer wg.Done()
			for _, spec := range specs {
				t0 := time.Now()
				status, problem := runJob(ctx, c, spec, call)
				el := time.Since(t0)
				if problem == "" {
					problem = checkJob(g, status, unique, &mu)
				}
				g.op(problem)
				mu.Lock()
				rs.jobMS = append(rs.jobMS, ms(el))
				if status != nil && len(status.Arms) > 0 {
					rs.armMS = append(rs.armMS, ms(el)/float64(len(status.Arms)))
				}
				mu.Unlock()
			}
		}(st.clients[t], jobs[t])
	}
	wg.Wait()
	rs.wall = time.Since(start)
	for _, b := range unique {
		rs.branches += b
	}
	return rs
}

// runJob submits spec and waits for it to finish.
func runJob(ctx context.Context, c *serveapi.Client, spec *serveapi.JobSpec, call tenantCall) (*serveapi.JobStatus, string) {
	spec = cloneSpec(spec)
	var ack *serveapi.Submitted
	if err := call("serve.submit", func() (err error) {
		ack, err = c.SubmitJob(ctx, spec)
		return err
	}); err != nil {
		return nil, fmt.Sprintf("%s: submit: %v", spec.Name, err)
	}
	var status *serveapi.JobStatus
	if err := call("serveapi.wait", func() (err error) {
		status, err = c.WaitJob(ctx, ack.ID)
		return err
	}); err != nil {
		return nil, fmt.Sprintf("%s: wait: %v", spec.Name, err)
	}
	return status, ""
}

// checkJob compares every arm of a finished job with the oracle — which is
// the offline Harness.Run result of the same arm — and records the branches
// of each distinct arm (dedupe hits are simulated once per round).
func checkJob(g *gate, status *serveapi.JobStatus, unique map[string]uint64, mu *sync.Mutex) string {
	if status.State != serveapi.StateDone {
		return fmt.Sprintf("job %s: state %s: %s", status.ID, status.State, status.Error)
	}
	for _, a := range status.Arms {
		key := armKey(a.Workload, a.Input, a.Predictor, a.Scheme)
		var err error
		if a.State != serveapi.ArmDone {
			err = fmt.Errorf("arm state %s: %s", a.State, a.Error)
		}
		got := resultOfWire(a.Metrics)
		if p := g.armProblem(key, got, err); p != "" {
			return "job " + status.ID + ": " + p
		}
		mu.Lock()
		unique[key] = got[1]
		mu.Unlock()
	}
	return ""
}

func cloneSpec(s *serveapi.JobSpec) *serveapi.JobSpec {
	c := *s
	c.Workloads = append([]string(nil), s.Workloads...)
	c.Inputs = append([]string(nil), s.Inputs...)
	c.Predictors = append([]string(nil), s.Predictors...)
	c.Schemes = append([]string(nil), s.Schemes...)
	return &c
}

// runServe runs serve-tenants: rounds over a freshly set-up daemon until
// opt.seconds have been measured. Round r's jobs come from (seed, r).
func runServe(ctx context.Context, opt options, g *gate) (map[string]metric, error) {
	if opt.trace {
		return traceServe(ctx, opt, g)
	}
	t := &timing{}
	if err := timeSetups(opt, t); err != nil {
		return nil, err
	}
	for r := 0; r == 0 || t.elapsed < opt.seconds; r++ {
		st, err := setupServe(ctx, opt.scratch)
		if err != nil {
			return nil, err
		}
		resetPeakRSS()
		sp := speed()
		before, cpu0 := readTicks(), cpuSeconds()
		rs := st.round(ctx, serveRound(opt.seed, r), g, untimed)
		share, cpu := runShare(before, readTicks()), cpuSeconds()-cpu0
		st.close()
		t.addPass(rs.wall, share, sp, cpu, rs.armMS, rs.jobMS, rs.branches)
	}
	return t.endToEnd(), nil
}
