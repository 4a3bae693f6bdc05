package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"branchsim/internal/experiment"
	"branchsim/internal/sim"
)

func TestGridsAreDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		if !reflect.DeepEqual(paperGrid(seed, 0), paperGrid(seed, 0)) {
			t.Errorf("paperGrid(%d) differs between calls", seed)
		}
		if !reflect.DeepEqual(modernGrid(seed, 0), modernGrid(seed, 0)) {
			t.Errorf("modernGrid(%d) differs between calls", seed)
		}
		for r := 0; r < 3; r++ {
			if !reflect.DeepEqual(serveRound(seed, r), serveRound(seed, r)) {
				t.Errorf("serveRound(%d, %d) differs between calls", seed, r)
			}
		}
	}
}

func TestGridsDifferBetweenSeeds(t *testing.T) {
	if reflect.DeepEqual(paperGrid(1, 0), paperGrid(2, 0)) {
		t.Error("paperGrid: seeds 1 and 2 generate the same grid")
	}
	if reflect.DeepEqual(modernGrid(1, 0), modernGrid(2, 0)) {
		t.Error("modernGrid: seeds 1 and 2 generate the same grid")
	}
	if reflect.DeepEqual(serveRound(1, 0), serveRound(2, 0)) {
		t.Error("serveRound: seeds 1 and 2 generate the same jobs")
	}
	if reflect.DeepEqual(serveRound(1, 0), serveRound(1, 1)) {
		t.Error("serveRound: rounds 0 and 1 of one seed generate the same jobs")
	}
	if reflect.DeepEqual(paperGrid(1, 0), paperGrid(1, 1)) {
		t.Error("paperGrid: passes 0 and 1 of one seed generate the same grid")
	}
}

func TestGridShapes(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pg := paperGrid(seed, 0)
		if len(pg) != 30 {
			t.Fatalf("paperGrid(%d): %d jobs, want 30", seed, len(pg))
		}
		sizes := map[string]int{}
		perWorkload := map[string]map[string]bool{}
		for _, j := range pg {
			if len(j.Arms) != 3 {
				t.Fatalf("paperGrid(%d): job %s has %d arms", seed, j.Name, len(j.Arms))
			}
			a := j.Arms[0]
			_, size, _ := strings.Cut(a.Pred, ":")
			sizes[size]++
			if perWorkload[a.Workload] == nil {
				perWorkload[a.Workload] = map[string]bool{}
			}
			perWorkload[a.Workload][size] = true
		}
		for size, n := range sizes {
			if n < 4 || n > 5 {
				t.Errorf("paperGrid(%d): size %s used %d times, want 4 or 5", seed, size, n)
			}
		}
		for wl, s := range perWorkload {
			if len(s) != 5 {
				t.Errorf("paperGrid(%d): %s has %d distinct sizes, want 5", seed, wl, len(s))
			}
		}
		if n := len(modernGrid(seed, 0)); n != 24 {
			t.Errorf("modernGrid(%d): %d jobs, want 24", seed, n)
		}
	}
}

func TestServeRoundsOverlapAboutHalf(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		jobs := serveRound(seed, 0)
		seen := map[string]bool{}
		for s := 0; s < serveSteps; s++ {
			a, b := jobs[0][s], jobs[1][s]
			if !reflect.DeepEqual(a.Workloads, b.Workloads) || !reflect.DeepEqual(a.Schemes, b.Schemes) {
				t.Fatalf("seed %d step %d: tenants differ outside the predictor list", seed, s)
			}
			shared := 0
			for _, p := range b.Predictors {
				for _, q := range a.Predictors {
					if p == q {
						shared++
					}
				}
			}
			if k := len(a.Predictors); shared != (k+1)/2 || len(b.Predictors) != k {
				t.Errorf("seed %d step %d: %d of %d specs shared", seed, s, shared, k)
			}
			for _, wl := range a.Workloads {
				seen[wl] = true
			}
		}
		if len(seen) != len(experiment.Suite) {
			t.Errorf("seed %d: round visits %d workloads, want all %d", seed, len(seen), len(experiment.Suite))
		}
	}
}

// Every arm any seed generates must have an oracle result, or a run would
// count correct arms as failures.
func TestOracleCoversGeneratedArms(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		for _, j := range append(paperGrid(seed, int(seed)), modernGrid(seed, int(seed))...) {
			for _, a := range j.Arms {
				if _, ok := want.Results[armKey(a.Workload, a.Input, a.Pred, a.Scheme)]; !ok {
					t.Fatalf("seed %d: no expected result for %+v", seed, a)
				}
			}
		}
		for _, j := range modernGrid(seed, int(seed)) {
			for _, a := range j.Arms {
				if _, ok := want.Journals[armKey(a.Workload, a.Input, a.Pred, a.Scheme)]; !ok {
					t.Fatalf("seed %d: no expected journal digest for %+v", seed, a)
				}
			}
		}
		for _, tenant := range serveRound(seed, int(seed)) {
			for _, spec := range tenant {
				s := cloneSpec(spec)
				if err := s.Normalize(); err != nil {
					t.Fatal(err)
				}
				for _, a := range s.Arms() {
					if _, ok := want.Results[armKey(a.Workload, a.Input, a.Predictor, a.Scheme)]; !ok {
						t.Fatalf("seed %d: no expected result for serve arm %+v", seed, a)
					}
				}
			}
		}
	}
}

// A wrong sim.Metrics from the program must show up as a failed op.
func TestWrongMetricsRaiseFailedRatio(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	opt := options{workload: "paper-grid", seed: 3, scratch: t.TempDir()}
	jobs := paperGrid(opt.seed, 0)[:2]
	victim := jobs[1].Arms[0]

	run := func(corrupt bool) *gate {
		g := newGate(want)
		w := newOffline(opt, func(ctx context.Context, h *experiment.Harness, a experiment.Arm) (sim.Metrics, error) {
			m, err := h.Run(ctx, a)
			if corrupt && a == victim {
				m.Mispredicts++
			}
			return m, err
		})
		w.grid = func(int64, int) []offlineJob { return jobs }
		if _, err := w.timedPass(context.Background(), 0, g); err != nil {
			t.Fatal(err)
		}
		return g
	}
	if g := run(false); g.failedRatio() != 0 {
		t.Fatalf("clean pass: failed_ratio %v, notes %v", g.failedRatio(), g.notes)
	}
	g := run(true)
	attempted, failed := g.counts()
	if failed != 1 || attempted != 6 {
		t.Fatalf("corrupted pass: %d of %d ops failed, want 1 of 6", failed, attempted)
	}
	if g.failedRatio() <= 0 {
		t.Fatalf("failed_ratio %v, want > 0", g.failedRatio())
	}
	if !strings.Contains(g.notes[0], victim.Workload) {
		t.Errorf("note %q does not name the corrupted arm", g.notes[0])
	}
}

func TestGateCountsErrorsAndUnknownArms(t *testing.T) {
	g := newGate(&expectedFile{Results: map[string]result{"a": {1, 2}}})
	g.arm("a", result{1, 2}, nil)
	g.arm("a", result{1, 2}, os.ErrClosed)
	g.arm("b", result{1, 2}, nil)
	if a, f := g.counts(); a != 3 || f != 2 {
		t.Fatalf("counts = %d attempted, %d failed; want 3, 2", a, f)
	}
}

func TestJournalDigestsIgnoreArmRecordsAndInterleaving(t *testing.T) {
	a1 := `{"type":"interval","v":1,"workload":"go","input":"test","predictor":"tage+none","seq":0}`
	a2 := `{"type":"interval","v":1,"workload":"go","input":"test","predictor":"tage+none","seq":1}`
	b1 := `{"type":"interval","v":1,"workload":"gcc","input":"test","predictor":"gshare+none","seq":0}`
	arm := `{"type":"arm","v":1,"wall_ns":%d}`
	one := journalDigests([]byte(strings.Join([]string{a1, b1, a2, strings.Replace(arm, "%d", "1", 1)}, "\n")))
	two := journalDigests([]byte(strings.Join([]string{b1, strings.Replace(arm, "%d", "2", 1), a1, a2}, "\n")))
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("digests differ: %v vs %v", one, two)
	}
	swapped := journalDigests([]byte(strings.Join([]string{a2, a1, b1}, "\n")))
	if swapped["go|test|tage+none"] == one["go|test|tage+none"] {
		t.Fatal("reordering one arm's records did not change its digest")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, n := tail(xs); v != 90 || n != 100 {
		t.Fatalf("tail = %v (%d samples), want 90 (100)", v, n)
	}
	if p := tailPercentile(100); p != 90 {
		t.Fatalf("tailPercentile(100) = %v, want 90", p)
	}
	if v, _ := tail([]float64{3, 1, 2}); v != 3 {
		t.Fatalf("tail of 3 samples = %v, want the maximum", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m machine) string {
		r := savedResult{Machine: m, Workload: "paper-grid", Seconds: 10,
			Report: &report{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {1, "s"}}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	here := fingerprint()
	a := write("a.json", here)
	b := write("b.json", here)
	if err := compareFiles([]string{a, b}); err != nil {
		t.Fatalf("same machine: %v", err)
	}
	other := here
	other.NumCPU++
	c := write("c.json", other)
	if err := compareFiles([]string{a, c}); err == nil || !strings.Contains(err.Error(), "different machines") {
		t.Fatalf("different machines: err = %v, want a refusal", err)
	}
}
