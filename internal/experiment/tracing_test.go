package experiment

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/sim"
)

// armShape reduces a journal's arm records to their deterministic identity —
// kind, key, provenance, event count, outcome — dropping wall-clock fields
// that legitimately differ between runs. Sorted, so concurrent interleaving
// does not matter.
func armShape(recs *obs.Records) string {
	var out []string
	for i := range recs.Arms {
		a := &recs.Arms[i]
		out = append(out, fmt.Sprintf("%s|%s|%s|%d|%s", a.Kind, a.Key, a.Source, a.Events, a.Error))
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestJournalByteStableWithTracing is the tracing byte-identity acceptance
// test: running the same sweep with tracing enabled (plus a slow-arm
// threshold low enough that every arm records an exemplar) must leave the
// journal indistinguishable from a tracing-off run — span frames are
// live-only, and the journaled record stream is unchanged byte for byte.
// Checked at workers=1 (sequential) and workers=8 (concurrent arms sharing
// one capture, so the cross-link registry is exercised too).
func TestJournalByteStableWithTracing(t *testing.T) {
	traced := []obs.Option{obs.WithTracing(), obs.WithSlowArm(time.Nanosecond)}

	// A bus tap proves tracing was actually live during the traced sweeps:
	// span frames must flow on the bus even though none may hit the journal.
	var spanFrames atomic.Uint64
	tapSpans := func(o *obs.Observer) func() {
		sub := o.Subscribe(1024)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for line := range sub.C() {
				if bytes.Contains(line, []byte(`"type":"span"`)) {
					spanFrames.Add(1)
				}
			}
		}()
		return func() { sub.Close(); <-done }
	}

	recsOff1, rawOff1 := telemetrySweep(t, 1, false)
	recsOn1, rawOn1 := telemetrySweepObs(t, 1, false, traced, tapSpans)
	recsOff8, rawOff8 := telemetrySweep(t, 8, true)
	recsOn8, rawOn8 := telemetrySweepObs(t, 8, true, traced, nil)

	if spanFrames.Load() == 0 {
		t.Error("traced sweep published no span frames; tracing never engaged")
	}

	// No span frame may ever reach a journal.
	for label, raw := range map[string][]byte{"workers=1": rawOn1, "workers=8": rawOn8} {
		if bytes.Contains(raw, []byte(`"type":"span"`)) {
			t.Errorf("span frame leaked into the traced journal (%s)", label)
		}
	}

	// Per-arm telemetry streams: byte-for-byte identical tracing off vs on
	// at workers=1, where emission order is fully deterministic.
	names := map[string]bool{}
	for i := range recsOff1.Intervals {
		names[recsOff1.Intervals[i].Predictor] = true
	}
	if len(names) != len(FivePredictors) {
		t.Fatalf("tracing-off sweep journaled %d arms' telemetry, want %d", len(names), len(FivePredictors))
	}
	for name := range names {
		off := strings.Join(telemetryLines(rawOff1, name), "\n")
		on := strings.Join(telemetryLines(rawOn1, name), "\n")
		if off == "" {
			t.Fatalf("%s: no telemetry lines in the tracing-off journal", name)
		}
		if off != on {
			t.Errorf("%s: journaled telemetry differs with tracing on:\noff:\n%s\non:\n%s", name, off, on)
		}
	}

	// The full telemetry record set is identical across all four journals
	// (only cross-arm interleaving may differ under concurrency).
	collect := func(raw []byte) string {
		var all []string
		for name := range names {
			all = append(all, telemetryLines(raw, name)...)
		}
		sort.Strings(all)
		return strings.Join(all, "\n")
	}
	base := collect(rawOff1)
	for label, raw := range map[string][]byte{
		"workers=1 traced": rawOn1, "workers=8": rawOff8, "workers=8 traced": rawOn8,
	} {
		if collect(raw) != base {
			t.Errorf("telemetry record set differs between the golden run and %s", label)
		}
	}

	// Arm records: identical identity, provenance and event counts.
	baseShape := armShape(recsOff1)
	for label, recs := range map[string]*obs.Records{
		"workers=1 traced": recsOn1, "workers=8": recsOff8, "workers=8 traced": recsOn8,
	} {
		if got := armShape(recs); got != baseShape {
			t.Errorf("arm records differ between the golden run and %s:\ngolden:\n%s\n%s:\n%s",
				label, baseShape, label, got)
		}
	}
}

// TestTracingOverheadGuard asserts the zero-cost-when-off contract for
// tracing, deterministically: an arm swept through a harness whose
// observer has tracing disabled (the default) publishes no span frame and
// scores exactly what an observer-free run does, and the arm's runner,
// publishing to that observer, allocates nothing per decoded block — the
// per-event path holds no tracing call site at all. The wall-clock ratio
// (bound 1.05x) is perfbench's obs.off_ratio, measured there in interleaved
// rounds where a shared machine's noise cannot fail this suite.
func TestTracingOverheadGuard(t *testing.T) {
	arm := Arm{Workload: "compress", Input: "test", Pred: "gshare:1KB", Scheme: "none"}
	run := func(o *obs.Observer) sim.Metrics {
		h := NewQuickHarness(WithObserver(o), WithWorkers(2))
		defer h.Close()
		m, err := h.Run(context.Background(), arm)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bare := run(nil)

	o := obs.New()
	if o.TracingEnabled() {
		t.Fatal("tracing is on by default")
	}
	var spans, frames atomic.Uint64
	sub := o.Subscribe(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for line := range sub.C() {
			frames.Add(1)
			if bytes.Contains(line, []byte(`"type":"span"`)) {
				spans.Add(1)
			}
		}
	}()
	observed := run(o)
	sub.Close()
	<-done
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if n := spans.Load(); n != 0 {
		t.Errorf("tracing-off sweep published %d span frames (of %d frames)", n, frames.Load())
	}
	if d := bare.Diff(observed); d != "" {
		t.Errorf("observed arm differs from the observer-free arm: %s", d)
	}
	if allocs := allocsPerBlock(t, "gshare:1KB", sim.WithObserver(obs.New())); allocs != 0 {
		t.Errorf("runner publishing to a tracing-off observer: %.1f allocations per block, want 0", allocs)
	}
}

// allocsPerBlock feeds a fixed 4096-event block to a runner around spec,
// built with opts plus collision tracking, and reports the allocations per
// block.
func allocsPerBlock(t *testing.T, spec string, opts ...sim.Option) float64 {
	t.Helper()
	p, err := predictor.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner(p, append([]sim.Option{sim.WithCollisions()}, opts...)...)
	if !r.BatchKernel() {
		t.Fatalf("%s: runner has no batch kernel", spec)
	}
	const n = 4096
	pcs, taken, ops := make([]uint64, n), make([]bool, n), make([]uint64, n)
	var opsSum uint64
	for i := range pcs {
		pcs[i] = 0x1_0000 + uint64(i*i%509)*4
		taken[i] = i%3 != 0
		ops[i] = uint64(i % 5)
		opsSum += ops[i]
	}
	return testing.AllocsPerRun(20, func() { r.RunBlockSummed(pcs, taken, ops, opsSum) })
}
