// End-to-end tests of the public facade: simulation, phase-1 profiling and
// the combined scheme, all through Simulate.
package branchsim_test

import (
	"context"
	"strings"
	"testing"

	"branchsim"
)

// simulate runs one Simulate call on wl/input with the given options.
func simulate(wl, input string, opts ...branchsim.SimOption) (branchsim.Metrics, error) {
	return branchsim.Simulate(context.Background(),
		append([]branchsim.SimOption{branchsim.Workload(wl), branchsim.Input(input)}, opts...)...)
}

// profile collects a phase-1 profile of wl/input: bias-only for an empty
// spec, otherwise with the spec's per-branch accuracy and collisions.
func profile(wl, input, spec string) (*branchsim.ProfileDB, branchsim.Metrics, error) {
	db := branchsim.NewProfileDB(wl, input)
	opts := []branchsim.SimOption{branchsim.WithProfileInto(db)}
	if spec != "" {
		opts = append(opts, branchsim.WithPredictorSpec(spec), branchsim.WithCollisions())
	}
	m, err := simulate(wl, input, opts...)
	return db, m, err
}

func TestNewPredictorAndRun(t *testing.T) {
	p, err := branchsim.NewPredictor("gshare:2KB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := simulate("compress", branchsim.InputTest,
		branchsim.WithPredictor(p), branchsim.WithCollisions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Branches == 0 || m.Mispredicts == 0 || m.MISPKI() <= 0 {
		t.Fatalf("implausible metrics: %+v", m)
	}
	if !m.CollisionsTracked {
		t.Fatalf("collisions not tracked")
	}
	if m.Accuracy() < 0.5 || m.Accuracy() >= 1 {
		t.Fatalf("accuracy = %v", m.Accuracy())
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := simulate("compress", "test"); err == nil {
		t.Fatalf("nil predictor accepted")
	}
	p, _ := branchsim.NewPredictor("bimodal:1KB")
	if _, err := simulate("nosuch", "test", branchsim.WithPredictor(p)); err == nil {
		t.Fatalf("unknown workload accepted")
	}
	if _, err := simulate("compress", "nosuch", branchsim.WithPredictor(p)); err == nil {
		t.Fatalf("unknown input accepted")
	}
}

func TestProfileBiasOnly(t *testing.T) {
	db, m, err := profile("compress", branchsim.InputTest, "")
	if err != nil {
		t.Fatal(err)
	}
	if db.Predictor != "" {
		t.Fatalf("bias-only profile has predictor %q", db.Predictor)
	}
	if db.Len() == 0 || db.DynamicBranches() != m.Branches {
		t.Fatalf("profile/metrics mismatch: %d vs %d", db.DynamicBranches(), m.Branches)
	}
	if db.Instructions != m.Instructions {
		t.Fatalf("instruction counts disagree: %d vs %d", db.Instructions, m.Instructions)
	}
}

func TestProfileWithPredictor(t *testing.T) {
	db, m, err := profile("compress", branchsim.InputTest, "gshare:2KB")
	if err != nil {
		t.Fatal(err)
	}
	if db.Predictor != "gshare" {
		t.Fatalf("profile predictor = %q", db.Predictor)
	}
	var correct uint64
	for _, b := range db.Branches() {
		correct += b.Correct
	}
	if got := m.Branches - m.Mispredicts; correct != got {
		t.Fatalf("per-branch correct (%d) does not sum to metrics (%d)", correct, got)
	}
}

func TestEndToEndCombinedImproves(t *testing.T) {
	const wl, input, spec = "gcc", branchsim.InputTest, "ghist:1KB"

	dyn, _ := branchsim.NewPredictor(spec)
	base, err := simulate(wl, input, branchsim.WithPredictor(dyn))
	if err != nil {
		t.Fatal(err)
	}

	db, _, err := profile(wl, input, spec)
	if err != nil {
		t.Fatal(err)
	}
	hints, err := branchsim.SelectHints(branchsim.StaticAcc{}, db)
	if err != nil {
		t.Fatal(err)
	}
	if hints.Len() == 0 {
		t.Fatalf("no hints selected")
	}

	dyn2, _ := branchsim.NewPredictor(spec)
	comb := branchsim.Combine(dyn2, hints, branchsim.NoShift)
	m, err := simulate(wl, input, branchsim.WithPredictor(comb))
	if err != nil {
		t.Fatal(err)
	}
	// Self-trained Static_Acc on ghist must help (the paper's headline).
	if m.MISPKI() >= base.MISPKI() {
		t.Fatalf("combined %.3f MISP/KI did not beat baseline %.3f", m.MISPKI(), base.MISPKI())
	}
	st := comb.Stats()
	if st.StaticExecs == 0 || st.DynamicExecs == 0 {
		t.Fatalf("static/dynamic split degenerate: %+v", st)
	}
}

func TestDivergeExposedOnFacade(t *testing.T) {
	a, _, err := profile("compress", branchsim.InputTest, "")
	if err != nil {
		t.Fatal(err)
	}
	d := branchsim.Diverge(a, a)
	if d.CoverageStatic != 1 || d.FlipStatic != 0 {
		t.Fatalf("self-divergence = %+v", d)
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := branchsim.Workloads()
	if len(names) < 6 {
		t.Fatalf("workloads = %v", names)
	}
	for _, n := range names {
		p, err := branchsim.WorkloadByName(n)
		if err != nil || p.Name() != n {
			t.Fatalf("WorkloadByName(%q): %v", n, err)
		}
		if p.Description() == "" {
			t.Fatalf("%s has no description", n)
		}
	}
}

func TestPredictorNamesConstruct(t *testing.T) {
	for _, n := range branchsim.PredictorNames() {
		if _, err := branchsim.NewPredictor(n); err != nil {
			t.Errorf("PredictorNames lists %q but New fails: %v", n, err)
		}
	}
}

func TestNewProfileDB(t *testing.T) {
	db := branchsim.NewProfileDB("w", "i")
	db.Record(4, true)
	if db.Len() != 1 || !strings.Contains(db.Workload, "w") {
		t.Fatalf("db = %+v", db)
	}
}
