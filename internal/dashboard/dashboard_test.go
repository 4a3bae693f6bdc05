package dashboard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"branchsim/internal/obs"
)

func frame(t *testing.T, rec any) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func feedArm(t *testing.T, st *State, key, pred string, fail bool) {
	t.Helper()
	st.Ingest(frame(t, &obs.ArmStartRecord{Type: obs.RecArmStart, V: obs.SchemaV1, Kind: "run", Key: key}))
	rec := obs.ArmRecord{
		Type: obs.RecArm, V: obs.SchemaV1, Kind: "run", Key: key,
		Workload: "loop", Input: "small", Predictor: pred,
		Source: obs.SourceComputed, Events: 1000, WallNanos: 5e6,
	}
	if fail {
		rec.Error = "boom"
	}
	st.Ingest(frame(t, &rec))
}

func feedInterval(t *testing.T, st *State, pred string, seq int) {
	t.Helper()
	st.Ingest(frame(t, &obs.IntervalRecord{
		Type: obs.RecInterval, V: obs.SchemaV1,
		Workload: "loop", Input: "small", Predictor: pred,
		Seq: seq, Instructions: uint64(seq+1) * 1000,
		DInstructions: 1000, DBranches: 500, DMispredicts: uint64(10 * (seq + 1)),
		CollisionsTracked: true, DCollisions: 20, DDestructive: uint64(5 * (seq + 1)),
	}))
}

func TestStateIngestLifecycle(t *testing.T) {
	st := NewState()
	st.Ingest(frame(t, &obs.ArmStartRecord{Type: obs.RecArmStart, V: obs.SchemaV1, Kind: "run", Key: "k1"}))
	snap := st.Snapshot()
	if len(snap.Arms) != 1 || snap.Arms[0].Status != "running" {
		t.Fatalf("after start: %+v", snap.Arms)
	}
	feedArm(t, st, "k1", "gshare:12", false)
	feedArm(t, st, "k2", "bimodal:12", true)
	st.Ingest(frame(t, &obs.ProgressRecord{Type: obs.RecProgress, V: obs.SchemaV1, ArmsDone: 1, ArmsFailed: 1}))
	st.Ingest(frame(t, &obs.DropsRecord{Type: obs.RecDrops, V: obs.SchemaV1, Dropped: 7}))
	st.Ingest([]byte("not json"))

	snap = st.Snapshot()
	if len(snap.Arms) != 2 {
		t.Fatalf("arms = %d, want 2", len(snap.Arms))
	}
	if snap.Arms[0].Status != "done" || snap.Arms[0].Predictor != "gshare:12" {
		t.Fatalf("arm k1 = %+v", snap.Arms[0])
	}
	if snap.Arms[1].Status != "failed" || snap.Arms[1].Error != "boom" {
		t.Fatalf("arm k2 = %+v", snap.Arms[1])
	}
	if snap.Progress == nil || snap.Progress.ArmsDone != 1 {
		t.Fatalf("progress = %+v", snap.Progress)
	}
	if snap.Drops != 7 || snap.Malformed != 1 {
		t.Fatalf("drops=%d malformed=%d", snap.Drops, snap.Malformed)
	}
}

// TestStateIngestJobs folds bpserve job lifecycle records into the cross-job
// view: one row per job ID, updated in place, submission order preserved.
func TestStateIngestJobs(t *testing.T) {
	st := NewState()
	job := func(id, tenant, state string, done, failed int) {
		st.Ingest(frame(t, &obs.JobRecord{Type: obs.RecJob, V: obs.SchemaV1,
			ID: id, Tenant: tenant, Name: "grid", State: state,
			ArmsTotal: 4, ArmsDone: done, ArmsFailed: failed}))
	}
	job("j000001", "alice", "queued", 0, 0)
	job("j000002", "bob", "running", 1, 0)
	job("j000001", "alice", "running", 2, 0)
	job("j000001", "alice", "done", 4, 0)

	snap := st.Snapshot()
	if len(snap.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(snap.Jobs))
	}
	if j := snap.Jobs[0]; j.ID != "j000001" || j.State != "done" || j.ArmsDone != 4 || j.Tenant != "alice" {
		t.Fatalf("job[0] = %+v", j)
	}
	if j := snap.Jobs[1]; j.ID != "j000002" || j.State != "running" || j.ArmsDone != 1 {
		t.Fatalf("job[1] = %+v", j)
	}
}

func TestStateBoundedStores(t *testing.T) {
	st := NewState()
	for i := 0; i < maxIntervals+10; i++ {
		feedInterval(t, st, "gshare:12", i)
	}
	snap := st.Snapshot()
	if snap.Intervals != maxIntervals {
		t.Fatalf("intervals = %d, want cap %d", snap.Intervals, maxIntervals)
	}
	if snap.IntervalsEvicted != 10 {
		t.Fatalf("evicted = %d, want 10", snap.IntervalsEvicted)
	}
	if got := len(st.Tail(0)); got != tailLines {
		t.Fatalf("tail = %d lines, want %d", got, tailLines)
	}
	// Tail keeps the newest lines.
	last := st.Tail(1)[0]
	if !strings.Contains(string(last), fmt.Sprintf(`"seq":%d`, maxIntervals+9)) {
		t.Fatalf("tail newest = %s", last)
	}
}

func TestHandlerRoutes(t *testing.T) {
	st := NewState()
	feedArm(t, st, "k1", "gshare:12", false)
	for seq := 0; seq < 3; seq++ {
		feedInterval(t, st, "gshare:12", seq)
		feedInterval(t, st, "bimodal:12", seq)
	}
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/"); code != 200 || !strings.Contains(body, "branchsim dashboard") || !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/ -> %d %q", code, ct)
	}
	if code, _, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope -> %d, want 404", code)
	}
	code, body, _ := get("/api/state")
	if code != 200 {
		t.Fatalf("/api/state -> %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("state json: %v", err)
	}
	if len(snap.Arms) != 1 || snap.Intervals != 6 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if code, body, _ := get("/api/tail?n=2"); code != 200 || strings.Count(body, "\n") != 2 {
		t.Fatalf("/api/tail -> %d, %d lines", code, strings.Count(body, "\n"))
	}
	for _, path := range []string{
		"/plot/intervals.svg",
		"/plot/intervals.svg?metric=destructive",
		"/plot/intervals.svg?metric=accuracy",
		"/plot/heatmap.svg",
	} {
		code, body, ct := get(path)
		if code != 200 || !strings.HasPrefix(ct, "image/svg+xml") || !strings.Contains(body, "<svg") {
			t.Fatalf("%s -> %d %q", path, code, ct)
		}
	}
	if code, _, _ := get("/plot/intervals.svg?metric=bogus"); code != 400 {
		t.Fatalf("bogus metric -> %d, want 400", code)
	}
	// Both series appear in the curves.
	_, body, _ = get("/plot/intervals.svg")
	if !strings.Contains(body, "gshare:12") || !strings.Contains(body, "bimodal:12") {
		t.Fatal("curve SVG missing a predictor series")
	}
}

func TestHandlerEmptyStateCharts(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	for _, path := range []string{"/plot/intervals.svg", "/plot/heatmap.svg"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("%s on empty state -> %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestAttachFeedsFromLiveBus(t *testing.T) {
	o := obs.New()
	defer o.Close()
	st, stop := Attach(o)
	sp, _ := o.StartArm(context.Background(), "run", "arm-1")
	sp.SetLabels("loop", "small", "gshare:12", "")
	sp.End(nil)
	o.Publish(&obs.IntervalRecord{
		Workload: "loop", Input: "small", Predictor: "gshare:12",
		Seq: 0, Instructions: 1000, DInstructions: 1000, DMispredicts: 5,
	})

	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := st.Snapshot()
		if len(snap.Arms) == 1 && snap.Arms[0].Status == "done" && snap.Intervals == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state never caught up: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	// After stop the feeder is drained; further publishes don't arrive.
	o.Publish(&obs.ProgressRecord{})
	time.Sleep(10 * time.Millisecond)
	if st.Snapshot().Progress != nil {
		t.Fatal("state updated after stop")
	}
}
