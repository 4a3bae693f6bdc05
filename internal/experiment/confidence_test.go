package experiment

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
)

// confidenceArms are the self-grading predictors the confidence telemetry
// targets: tage reports (2·strength+useful)/9 from its provider entry,
// perceptron |sum|/θ from its dot product.
var confidenceArms = []string{"tage", "perceptron"}

// confidenceSweep runs the two self-grading predictors over compress/test
// with tagged-table and confidence telemetry enabled and returns the parsed
// journal plus the raw journal bytes.
func confidenceSweep(t *testing.T, workers int, concurrent bool, opts ...HarnessOption) (*obs.Records, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	h := NewQuickHarness(append([]HarnessOption{
		WithObserver(sink),
		WithWorkers(workers),
		WithTelemetry(telemetry.Config{Interval: 50_000, TableStats: true, Confidence: true, TopK: 8}),
	}, opts...)...)
	defer h.Close()
	ctx := context.Background()

	runArm := func(pred string) error {
		_, err := h.Run(ctx, Arm{Workload: "compress", Input: "test", Pred: pred + ":1KB", Scheme: "none"})
		return err
	}
	if concurrent {
		var wg sync.WaitGroup
		errs := make([]error, len(confidenceArms))
		for i, pred := range confidenceArms {
			wg.Add(1)
			go func(i int, pred string) {
				defer wg.Done()
				errs[i] = runArm(pred)
			}(i, pred)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, pred := range confidenceArms {
			if err := runArm(pred); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	recs, err := obs.ReadRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return recs, raw
}

// confidenceLines extracts one arm's tagged_table_stats and confidence
// record lines from a raw journal, preserving emission order.
func confidenceLines(raw []byte, predictor string) []string {
	var out []string
	marker := fmt.Sprintf("%q:%q", "predictor", predictor)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, marker) {
			continue
		}
		if strings.Contains(line, `"type":"tagged_table_stats"`) ||
			strings.Contains(line, `"type":"confidence"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestConfidenceGoldenByteStable extends the golden determinism contract to
// the two record types this layer adds: an arm's tagged_table_stats and
// confidence streams are byte-identical across repeated runs, across replay
// worker counts (workers=1 sequential vs workers=8 concurrent), and across
// the batched kernel being on or off. With the kernel on, both predictors
// run whole blocks through their native kernels — cut at each interval
// seal, grading every prediction into the kernel's per-event confidence
// output — and with it off they take the per-event scalar loop, so any
// byte difference means a sampler observed scheduling or block boundaries
// rather than the branch stream.
func TestConfidenceGoldenByteStable(t *testing.T) {
	recs1, raw1 := confidenceSweep(t, 1, false)
	_, raw2 := confidenceSweep(t, 1, false)
	_, raw8 := confidenceSweep(t, 8, true)
	_, rawNB1 := confidenceSweep(t, 1, false, WithBatch(false))
	_, rawNB8 := confidenceSweep(t, 8, true, WithBatch(false))

	// Discover the combined-predictor arm labels from the journal.
	names := map[string]string{} // base spec -> arm label
	for i := range recs1.Confidence {
		name := recs1.Confidence[i].Predictor
		for _, base := range confidenceArms {
			if strings.HasPrefix(name, base) {
				names[base] = name
			}
		}
	}
	for _, base := range confidenceArms {
		if names[base] == "" {
			t.Fatalf("no confidence records for %s arm (journal has %d)", base, len(recs1.Confidence))
		}
	}

	for _, base := range confidenceArms {
		arm := names[base]
		golden := confidenceLines(raw1, arm)
		if len(golden) == 0 {
			t.Fatalf("%s: no confidence/tagged lines", arm)
		}
		joined := strings.Join(golden, "\n")
		for label, raw := range map[string][]byte{
			"identical rerun":       raw2,
			"workers=8":             raw8,
			"-no-batch (workers=1)": rawNB1,
			"-no-batch (workers=8)": rawNB8,
		} {
			if got := strings.Join(confidenceLines(raw, arm), "\n"); got != joined {
				t.Errorf("%s: record stream differs vs %s:\ngolden:\n%s\ngot:\n%s", arm, label, joined, got)
			}
		}
	}

	// Shape: tage reports its six banks (bimodal base + five tagged
	// components) every interval; perceptron reports its single weights
	// bank (magnitude/margin histograms).
	wantBanks := map[string]int{names["tage"]: 6, names["perceptron"]: 1}
	tagged := map[string]int{}
	for i := range recs1.TaggedStats {
		r := &recs1.TaggedStats[i]
		tagged[r.Predictor]++
		if want := wantBanks[r.Predictor]; len(r.Banks) != want {
			t.Errorf("%s tagged sample %d: %d banks, want %d", r.Predictor, r.Seq, len(r.Banks), want)
		}
	}
	for _, base := range confidenceArms {
		if tagged[names[base]] == 0 {
			t.Errorf("%s arm produced no tagged_table_stats records", base)
		}
	}

	// The low-confidence top-K rides the existing topk record.
	var lowK int
	for i := range recs1.TopK {
		lowK += len(recs1.TopK[i].TopLowConfidence)
	}
	if lowK == 0 {
		t.Error("no top_low_confidence entries in any topk record")
	}
}

// TestConfidenceOverheadGuard asserts the zero-cost-when-off contract for
// the confidence and tagged-table samplers, deterministically: a zero
// telemetry config builds no collector, so a harness arm over a
// self-grading predictor journals no telemetry and scores exactly what a
// telemetry-free harness does, and its runner stays on the native kernel
// and allocates nothing per decoded block. That no disabled sampler does
// per-event work is counted, not timed, by the sim package's
// TestDisabledPathsDoNoPerEventWork. The wall-clock ratio (bound 1.05x) is
// perfbench's telemetry.off_ratio, measured there in interleaved rounds
// where a shared machine's noise cannot fail this suite.
func TestConfidenceOverheadGuard(t *testing.T) {
	if telemetry.New(telemetry.Config{}, obs.New()) != nil {
		t.Fatal("zero telemetry config built a collector")
	}
	arm := Arm{Workload: "compress", Input: "test", Pred: "tage:1KB", Scheme: "none"}
	run := func(opts ...HarnessOption) (sim.Metrics, []byte) {
		var buf bytes.Buffer
		o := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
		h := NewQuickHarness(append([]HarnessOption{WithObserver(o), WithWorkers(2)}, opts...)...)
		m, err := h.Run(context.Background(), arm)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	bare, _ := run()
	zero, journal := run(WithTelemetry(telemetry.Config{}))
	if d := bare.Diff(zero); d != "" {
		t.Errorf("zero-telemetry arm differs from the telemetry-free arm: %s", d)
	}
	for _, typ := range []string{"interval", "table_stats", "tagged_table_stats", "confidence", "topk"} {
		if bytes.Contains(journal, []byte(`"type":"`+typ+`"`)) {
			t.Errorf("zero-telemetry journal holds %s records", typ)
		}
	}
	for _, spec := range []string{"tage:1KB", "perceptron:1KB"} {
		if allocs := allocsPerBlock(t, spec, sim.WithTelemetry(telemetry.New(telemetry.Config{}, nil))); allocs != 0 {
			t.Errorf("%s with zero telemetry: %.1f allocations per block, want 0", spec, allocs)
		}
	}
}
