package serve_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/serve"
	"branchsim/serveapi"
)

// spanCollector drains a bus subscription and keeps every span frame it
// sees, so a test can assert on the live trace stream after the fact.
type spanCollector struct {
	mu    sync.Mutex
	spans []*obs.SpanRecord
	done  chan struct{}
}

func collectSpans(o *obs.Observer) *spanCollector {
	c := &spanCollector{done: make(chan struct{})}
	sub := o.Subscribe(4096)
	go func() {
		defer close(c.done)
		for line := range sub.C() {
			rec, err := obs.DecodeRecord(line)
			if err != nil {
				continue // non-record frames are not this collector's concern
			}
			if s, ok := rec.(*obs.SpanRecord); ok {
				c.mu.Lock()
				c.spans = append(c.spans, s)
				c.mu.Unlock()
			}
		}
	}()
	return c
}

// trace returns the collected spans of one trace.
func (c *spanCollector) trace(traceID string) []*obs.SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*obs.SpanRecord
	for _, s := range c.spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// TestTracingAndTenantAttribution is the service-level acceptance test for
// the tracing layer: two tenants submit overlapping grids over HTTP, and the
// live span stream must reconstruct each request's request → job → arm →
// harness tree, the second tenant's deduped arm must cross-link the first
// tenant's winning trace, the per-tenant ledger must attribute arms,
// branches, and dedupe savings to the right tenant, and the latency
// histograms must have observed every job.
func TestTracingAndTenantAttribution(t *testing.T) {
	sink := obs.New(obs.WithTracing())
	defer sink.Close()
	spans := collectSpans(sink)
	h := experiment.NewQuickHarness(experiment.WithObserver(sink), experiment.WithWorkers(2))
	defer h.Close()
	s, err := serve.New(serve.Config{Harness: h, Obs: sink, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := sink.Serve("127.0.0.1:0", obs.WithRootHandler(serve.Handler(s, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	submit := func(tenant string, preds ...string) *serveapi.Submitted {
		t.Helper()
		client := serveapi.NewClient(base, serveapi.WithTenant(tenant))
		ack, err := client.SubmitJob(ctx, &serveapi.JobSpec{
			Workloads: []string{"compress"}, Inputs: []string{"test"}, Predictors: preds})
		if err != nil {
			t.Fatalf("%s submit: %v", tenant, err)
		}
		if ack.TraceID == "" || len(ack.TraceID) != 16 {
			t.Fatalf("%s ack trace ID = %q, want 16 hex chars", tenant, ack.TraceID)
		}
		if st, err := client.WaitJob(ctx, ack.ID); err != nil || st.State != serveapi.StateDone {
			t.Fatalf("%s job = %+v (err %v), want done", tenant, st, err)
		}
		return ack
	}
	// Alice runs two arms; bob's single arm overlaps, so the harness serves
	// it from the memoized run — bob's latency decomposes into alice's work.
	aliceAck := submit("alice", "gshare:1KB", "bimodal:1KB")
	bobAck := submit("bob", "gshare:1KB")

	// The status endpoint reports the same trace the ack promised.
	st, err := s.Status(aliceAck.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != aliceAck.TraceID {
		t.Errorf("status trace ID %q != ack trace ID %q", st.TraceID, aliceAck.TraceID)
	}

	// Span frames publish asynchronously; wait for both traces to fill out.
	// Alice: request + job + 2 arms + at least the harness run spans below
	// them. Bob: request + job + 1 arm + the run:wait follower.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(spans.trace(aliceAck.TraceID)) >= 6 && len(spans.trace(bobAck.TraceID)) >= 4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	checkTree := func(traceID, tenant string, arms int) (byName map[string][]*obs.SpanRecord) {
		t.Helper()
		trace := spans.trace(traceID)
		byID := map[string]*obs.SpanRecord{}
		byName = map[string][]*obs.SpanRecord{}
		for _, sp := range trace {
			byID[sp.SpanID] = sp
			byName[sp.Name] = append(byName[sp.Name], sp)
		}
		if n := len(byName["request"]); n != 1 {
			t.Fatalf("%s: %d request spans, want 1 (trace: %+v)", tenant, n, byName)
		}
		req := byName["request"][0]
		if req.ParentID != "" || req.Tenant != tenant || req.Job == "" {
			t.Errorf("%s request span = %+v, want parentless with tenant and job", tenant, req)
		}
		if n := len(byName["job"]); n != 1 {
			t.Fatalf("%s: %d job spans, want 1", tenant, n)
		}
		job := byName["job"][0]
		if job.ParentID != req.SpanID || job.Tenant != tenant || job.Job != req.Job {
			t.Errorf("%s job span = %+v, want child of request %s", tenant, job, req.SpanID)
		}
		if n := len(byName["arm"]); n != arms {
			t.Fatalf("%s: %d arm spans, want %d", tenant, n, arms)
		}
		keys := map[string]bool{}
		for _, a := range byName["arm"] {
			if a.ParentID != job.SpanID || a.Key == "" {
				t.Errorf("%s arm span = %+v, want keyed child of job %s", tenant, a, job.SpanID)
			}
			keys[a.Key] = true
		}
		if len(keys) != arms {
			t.Errorf("%s arm keys not distinct: %v", tenant, keys)
		}
		return byName
	}
	alice := checkTree(aliceAck.TraceID, "alice", 2)
	bob := checkTree(bobAck.TraceID, "bob", 1)

	// Alice computed her arms: each arm span parents a harness "run" span
	// in the same trace.
	armIDs := map[string]bool{}
	for _, a := range alice["arm"] {
		armIDs[a.SpanID] = true
	}
	var runs int
	for _, r := range alice["run"] {
		if armIDs[r.ParentID] {
			runs++
		}
	}
	if runs != 2 {
		t.Errorf("alice: %d harness run spans under her arm spans, want 2", runs)
	}

	// Bob's deduped arm is attributed to singleflight and his follower span
	// cross-links the winner — alice's trace.
	if src := bob["arm"][0].Source; src != obs.SourceSingleflight {
		t.Errorf("bob arm source = %q, want %q", src, obs.SourceSingleflight)
	}
	var linked bool
	for _, w := range bob["run:wait"] {
		for _, l := range w.Links {
			if l.Kind == "singleflight" && l.TraceID == aliceAck.TraceID {
				linked = true
			}
		}
	}
	if !linked {
		t.Errorf("bob's follower span does not link alice's trace %s: %+v", aliceAck.TraceID, bob["run:wait"])
	}

	// Per-tenant attribution: the ledger and the wire summary agree.
	tl := s.Tenants()
	if len(tl.Tenants) != 2 || tl.Tenants[0].Tenant != "alice" || tl.Tenants[1].Tenant != "bob" {
		t.Fatalf("tenants = %+v, want sorted [alice bob]", tl.Tenants)
	}
	a, b := tl.Tenants[0], tl.Tenants[1]
	if a.Jobs != 1 || a.JobsDone != 1 || a.ArmsRun != 2 || a.ArmsSaved != 0 || a.Branches == 0 || a.Shed != 0 {
		t.Errorf("alice summary = %+v", a)
	}
	if b.Jobs != 1 || b.JobsDone != 1 || b.ArmsRun != 1 || b.ArmsSaved != 1 || b.Branches == 0 {
		t.Errorf("bob summary = %+v (dedupe must still credit bob's branches and savings)", b)
	}
	if a.LatencyMeanMS <= 0 || a.LatencyMaxMS < a.LatencyMeanMS {
		t.Errorf("alice latency = mean %v max %v ms", a.LatencyMeanMS, a.LatencyMaxMS)
	}

	// The same summary crosses the wire via GET /api/v1/tenants.
	wire, err := serveapi.NewClient(base).Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire.Tenants) != 2 || wire.Tenants[1] != b {
		t.Errorf("wire tenants = %+v, want %+v", wire.Tenants, tl.Tenants)
	}

	// Latency histograms observed every job; queue-wait saw the arms.
	if got := sink.Histogram(obs.MServeJobLatency).Count(); got != 2 {
		t.Errorf("job latency observations = %d, want 2", got)
	}
	if sink.Histogram(obs.MServeQueueWait).Count() == 0 {
		t.Error("queue-wait histogram never observed")
	}
	if got := sink.TenantHistogram(obs.MTenantJobLatency, "alice").Count(); got != 1 {
		t.Errorf("alice job-latency observations = %d, want 1", got)
	}

	// And /metrics renders the per-tenant and histogram series.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		`branchsim_serve_tenant_arms_run{tenant="alice"} 2`,
		`branchsim_serve_tenant_arms_run{tenant="bob"} 1`,
		`branchsim_serve_tenant_arms_saved{tenant="bob"} 1`,
		`branchsim_serve_job_latency_bucket{le="+Inf"} 2`,
		"branchsim_serve_job_latency_count 2",
		"# TYPE branchsim_serve_queue_wait histogram",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestQueueWaitInsideArmSpan: an arm's span starts when the arm enters the
// pool queue, so its queue_wait phase lies inside the span — a non-negative
// offset that ends within the span's duration. With one worker, the second
// arm of a two-arm job waits for the first.
func TestQueueWaitInsideArmSpan(t *testing.T) {
	sink := obs.New(obs.WithTracing())
	spans := collectSpans(sink)
	h := experiment.NewQuickHarness(experiment.WithObserver(sink))
	s, err := serve.New(serve.Config{Harness: h, Obs: sink, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := s.Submit(context.Background(), &serveapi.JobSpec{Tenant: "alice",
		Workloads: []string{"compress"}, Inputs: []string{"test"},
		Predictors: []string{"gshare:1KB", "bimodal:1KB"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, ack.ID); st.State != serveapi.StateDone {
		t.Fatalf("job = %+v, want done", st)
	}
	s.Close()
	h.Close()
	sink.Close()
	<-spans.done

	var arms int
	var longest time.Duration
	for _, sp := range spans.trace(ack.TraceID) {
		if sp.Name != "arm" {
			continue
		}
		arms++
		for _, p := range sp.Phases {
			if p.Phase != obs.PhaseQueue {
				continue
			}
			if p.OffsetNanos < 0 || p.OffsetNanos+p.DurNanos > sp.DurNanos {
				t.Errorf("arm %s: queue_wait at +%v for %v outside span of %v",
					sp.Key, time.Duration(p.OffsetNanos), time.Duration(p.DurNanos), time.Duration(sp.DurNanos))
			}
			longest = max(longest, time.Duration(p.DurNanos))
		}
	}
	if arms != 2 || longest <= 0 {
		t.Fatalf("%d arm spans, longest queue wait %v; want 2 arms, one of them queued", arms, longest)
	}
}
