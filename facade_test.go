// Tests for the options-first facade: the two ways of naming a predictor
// agree, and an attached observer journals what actually ran.
package branchsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"branchsim"
)

// TestSimulatePredictorMatchesSpec runs the paper's five schemes once from
// a predictor instance (WithPredictor) and once from its spec string
// (WithPredictorSpec) and demands identical Metrics, counter for counter.
func TestSimulatePredictorMatchesSpec(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"bimodal", "ghist", "gshare", "bimode", "2bcgskew"} {
		spec := name + ":2KB"
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			p, err := branchsim.NewPredictor(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := branchsim.Simulate(ctx,
				branchsim.Workload("compress"),
				branchsim.Input(branchsim.InputTest),
				branchsim.WithPredictor(p),
				branchsim.WithCollisions(),
			)
			if err != nil {
				t.Fatal(err)
			}
			got, err := branchsim.Simulate(ctx,
				branchsim.Workload("compress"),
				branchsim.Input(branchsim.InputTest),
				branchsim.WithPredictorSpec(spec),
				branchsim.WithCollisions(),
			)
			if err != nil {
				t.Fatal(err)
			}
			if d := want.Diff(got); d != "" {
				t.Fatalf("WithPredictorSpec diverges from WithPredictor: %s", d)
			}
		})
	}
}

// TestSimulateJournalsArmRecord attaches an observer with a journal to one
// Simulate call and checks the record's schema end to end, including the
// canonicalized predictor label and the embedded Metrics round-trip.
func TestSimulateJournalsArmRecord(t *testing.T) {
	var buf bytes.Buffer
	sink := branchsim.NewObserver(branchsim.WithJournal(branchsim.NewJournal(&buf)))
	m, err := branchsim.Simulate(context.Background(),
		branchsim.Workload("compress"),
		branchsim.Input(branchsim.InputTest),
		branchsim.WithPredictorSpec("gshare"), // canonicalizes to gshare:8KB
		branchsim.WithObserver(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := branchsim.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Kind != "simulate" || rec.Workload != "compress" || rec.Input != branchsim.InputTest {
		t.Fatalf("record identity = kind %q, %s/%s", rec.Kind, rec.Workload, rec.Input)
	}
	if rec.Predictor != "gshare:8KB" {
		t.Fatalf("record predictor = %q, want canonical %q", rec.Predictor, "gshare:8KB")
	}
	if rec.Source != "computed" {
		t.Fatalf("record source = %q", rec.Source)
	}
	if rec.Events != m.Branches || rec.Events == 0 {
		t.Fatalf("record events = %d, metrics branches = %d", rec.Events, m.Branches)
	}
	if rec.WallNanos <= 0 || rec.EventsPerSec <= 0 {
		t.Fatalf("record timing degenerate: wall=%d ev/s=%g", rec.WallNanos, rec.EventsPerSec)
	}
	if len(rec.Phases) == 0 || rec.Phases[len(rec.Phases)-1].Phase != "simulate" {
		t.Fatalf("record phases = %+v, want a trailing simulate phase", rec.Phases)
	}
	if rec.Error != "" {
		t.Fatalf("record error = %q", rec.Error)
	}
	var got branchsim.Metrics
	if err := json.Unmarshal(rec.Metrics, &got); err != nil {
		t.Fatalf("record metrics do not decode: %v", err)
	}
	if d := m.Diff(got); d != "" {
		t.Fatalf("journaled metrics diverge from returned metrics: %s", d)
	}
}

// TestSimulateJournalsFailure checks that a failed arm still lands in the
// journal, with its error recorded.
func TestSimulateJournalsFailure(t *testing.T) {
	var buf bytes.Buffer
	sink := branchsim.NewObserver(branchsim.WithJournal(branchsim.NewJournal(&buf)))
	_, err := branchsim.Simulate(context.Background(),
		branchsim.Workload("nosuch"),
		branchsim.Input(branchsim.InputTest),
		branchsim.WithPredictorSpec("gshare:2KB"),
		branchsim.WithObserver(sink),
	)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if cerr := sink.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	recs, rerr := branchsim.ReadJournal(&buf)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(recs) != 1 || recs[0].Error == "" {
		t.Fatalf("failed arm not journaled with its error: %+v", recs)
	}
}

func TestSimulateErrors(t *testing.T) {
	ctx := context.Background()
	_, err := branchsim.Simulate(ctx,
		branchsim.Workload("compress"), branchsim.Input(branchsim.InputTest))
	if err == nil || !strings.Contains(err.Error(), "no predictor configured") {
		t.Fatalf("predictor-less Simulate: %v", err)
	}
	_, err = branchsim.Simulate(ctx,
		branchsim.Workload("compress"), branchsim.Input(branchsim.InputTest),
		branchsim.WithPredictorSpec("nosuch:8KB"))
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("bad spec error should name the scheme: %v", err)
	}
	_, err = branchsim.Simulate(ctx,
		branchsim.Workload("compress"), branchsim.Input("nosuch"),
		branchsim.WithPredictorSpec("gshare:2KB"))
	if err == nil {
		t.Fatal("unknown input accepted")
	}
}
