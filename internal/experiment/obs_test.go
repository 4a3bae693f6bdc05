package experiment

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"branchsim/internal/obs"
	"branchsim/internal/sim"
)

// TestHarnessJournalsSweep drives a small sweep through an observed harness
// and checks the journal: one record per unique arm (runs and the nested
// selection profile), none for memoized repeats, and every record carrying
// the full schema — canonical predictor labels, phase timings, provenance
// and decodable metrics.
func TestHarnessJournalsSweep(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	h := NewQuickHarness(WithObserver(sink), WithWorkers(2))
	defer h.Close()
	ctx := context.Background()

	arms := []Arm{
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"},
		{Workload: "compress", Pred: "bimodal:1KB", Scheme: "none"},
		// static95 pulls in a nested bias-only profile arm.
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"},
	}
	for _, a := range arms {
		if _, err := h.Run(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	// A repeated arm is memoized: it must count as a singleflight hit and
	// add no journal record.
	if _, err := h.Run(ctx, arms[0]); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]int{}
	seen := map[string]bool{}
	var runEvents uint64
	for _, rec := range recs {
		byKind[rec.Kind]++
		if seen[rec.Key] {
			t.Errorf("duplicate journal record for key %q", rec.Key)
		}
		seen[rec.Key] = true
		if rec.Workload != "compress" || rec.Input != h.RefInput {
			t.Errorf("record %q labels = %s/%s", rec.Key, rec.Workload, rec.Input)
		}
		if rec.Source != obs.SourceComputed {
			t.Errorf("record %q source = %q", rec.Key, rec.Source)
		}
		if rec.Events == 0 || rec.WallNanos <= 0 || rec.Time.IsZero() {
			t.Errorf("record %q degenerate: events=%d wall=%d time=%v", rec.Key, rec.Events, rec.WallNanos, rec.Time)
		}
		if len(rec.Phases) == 0 {
			t.Errorf("record %q has no phase timings", rec.Key)
		}
		if rec.Error != "" || rec.Retries != 0 {
			t.Errorf("record %q error=%q retries=%d", rec.Key, rec.Error, rec.Retries)
		}
		switch rec.Kind {
		case "run":
			runEvents += rec.Events
			// Run labels are canonicalized specs, whatever the arm said.
			if rec.Predictor != "gshare:1KB" && rec.Predictor != "bimodal:1KB" {
				t.Errorf("record %q predictor = %q", rec.Key, rec.Predictor)
			}
			if rec.Scheme == "" {
				t.Errorf("record %q has no scheme", rec.Key)
			}
			var m sim.Metrics
			if err := json.Unmarshal(rec.Metrics, &m); err != nil {
				t.Errorf("record %q metrics do not decode: %v", rec.Key, err)
			} else if m.Branches != rec.Events {
				t.Errorf("record %q metrics/events mismatch: %d vs %d", rec.Key, m.Branches, rec.Events)
			}
		case "profile":
			// static95's selection profile is bias-only: no predictor label.
			if rec.Predictor != "" {
				t.Errorf("profile record %q predictor = %q, want bias-only", rec.Key, rec.Predictor)
			}
		default:
			t.Errorf("unexpected record kind %q", rec.Kind)
		}
	}
	if byKind["run"] != 3 || byKind["profile"] != 1 || len(recs) != 4 {
		t.Fatalf("journal kinds = %v (%d records), want 3 runs + 1 profile", byKind, len(recs))
	}

	// Registry counters agree with the journal.
	counts := map[string]uint64{
		obs.MArmsStarted:      4,
		obs.MArmsDone:         4,
		obs.MArmsFailed:       0,
		obs.MSingleflightHits: 1,
		obs.MSimEvents:        runEvents, // bias-only profiling bypasses the simulator
		obs.MCheckpointHits:   0,
	}
	for name, want := range counts {
		if got := sink.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := sink.Gauge(obs.MArmsRunning).Value(); got != 0 {
		t.Errorf("%s = %d after sweep, want 0", obs.MArmsRunning, got)
	}
}

// TestMetricsEndpointDuringSweep serves /debug/vars, /metrics and /events
// from the observer while a sweep runs and hammers them from polling
// goroutines — under -race this proves the registry's read path and the bus
// fan-out never tear against the hot simulation path.
func TestMetricsEndpointDuringSweep(t *testing.T) {
	sink := obs.New()
	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/debug/vars"

	fetch := func() (map[string]int64, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET /debug/vars: %s", resp.Status)
		}
		var vars map[string]int64
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			return nil, err
		}
		return vars, nil
	}
	fetchMetrics := func() error {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /metrics: %s", resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if !bytes.Contains(body, []byte("# TYPE branchsim_sim_events counter")) {
			return fmt.Errorf("/metrics missing sim.events series")
		}
		return nil
	}

	done := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		defer close(pollErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := fetch(); err != nil {
				pollErr <- err
				return
			}
			if err := fetchMetrics(); err != nil {
				pollErr <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// An SSE consumer races the sweep too: it must stream every arm's
	// records without ever stalling the publishers.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	sseFrames := make(chan int, 1)
	sseSix := make(chan struct{}) // closed once the stream delivered 6 frames
	sseErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(sseCtx, "GET", "http://"+srv.Addr()+"/events", nil)
		if err != nil {
			sseErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			sseErr <- err
			return
		}
		defer resp.Body.Close()
		close(sseErr)
		n := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				if n++; n == 6 {
					close(sseSix)
				}
			}
		}
		sseFrames <- n
	}()
	if err := <-sseErr; err != nil {
		t.Fatal(err)
	}

	h := NewQuickHarness(WithObserver(sink), WithWorkers(2))
	defer h.Close()
	ctx := context.Background()
	for _, pred := range []string{"gshare:1KB", "bimodal:1KB", "ghist:1KB"} {
		if _, err := h.Run(ctx, Arm{Workload: "compress", Pred: pred, Scheme: "none"}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}
	// Frames reach the client asynchronously; let the stream deliver the
	// sweep's frames before hanging up.
	select {
	case <-sseSix:
	case <-time.After(5 * time.Second):
	}
	sseCancel()
	select {
	case n := <-sseFrames:
		// 3 arms × (arm_start + arm record) at minimum.
		if n < 6 {
			t.Errorf("SSE saw %d frames, want >= 6", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not terminate")
	}

	vars, err := fetch()
	if err != nil {
		t.Fatal(err)
	}
	if vars[obs.MArmsDone] != 3 {
		t.Errorf("%s = %d, want 3", obs.MArmsDone, vars[obs.MArmsDone])
	}
	if vars[obs.MSimEvents] == 0 {
		t.Errorf("%s = 0 after three simulations", obs.MSimEvents)
	}
	for _, key := range []string{"process.goroutines", "process.heap_bytes", "process.uptime_ns"} {
		if vars[key] <= 0 {
			t.Errorf("%s = %d, want > 0", key, vars[key])
		}
	}
}
