package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchsim"
	"branchsim/internal/trace"
)

func TestRecordStatReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.btrc")

	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := stat([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-predictor", "gshare:1KB", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRequiresOutput(t *testing.T) {
	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test"}); err == nil {
		t.Fatal("missing -o accepted")
	}
}

func TestStatRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test", "-o", bad + ".ok"}); err != nil {
		t.Fatal(err)
	}
	if err := stat([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := stat([]string{}); err == nil {
		t.Fatal("no-arg stat accepted")
	}
}

func TestReplayBadPredictor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.btrc")
	if err := record(context.Background(), []string{"-workload", "ijpeg", "-input", "test", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-predictor", "nosuch:1KB", path}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

// TestReplayMatchesSimulate pins bptrace replay — a recorded file fed
// through the block kernel — to a direct simulation of the same workload.
func TestReplayMatchesSimulate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.btrc")
	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test", "-o", path}); err != nil {
		t.Fatal(err)
	}
	got, err := replayMetrics("gshare:1KB", path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := branchsim.Simulate(context.Background(),
		branchsim.Workload("compress"), branchsim.Input(branchsim.InputTest),
		branchsim.WithPredictorSpec("gshare:1KB"), branchsim.WithCollisions())
	if err != nil {
		t.Fatal(err)
	}
	// Labels differ by design: the replay names the file, not the workload.
	got.Predictor, got.Workload, got.Input = want.Predictor, want.Workload, want.Input
	if d := want.Diff(got); d != "" {
		t.Fatalf("replayed metrics diverge from Simulate: %s", d)
	}
	if !got.CollisionsTracked || got.Collisions.Total == 0 {
		t.Fatalf("collisions not tracked: %+v", got.Collisions)
	}
}

// TestStatEmptyTrace covers a header-only file: zero branches must report
// 0% taken, not NaN.
func TestStatEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.btrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := stat([]string{path}); err != nil {
		t.Fatal(err)
	}
	c, err := replayFile(path, trace.Discard)
	if err != nil {
		t.Fatal(err)
	}
	line := statSummary(path, c)
	if !strings.HasSuffix(line, "(0.0 CBRs/KI, 0.0% taken)") {
		t.Fatalf("empty trace stat = %q", line)
	}
}

// TestRecordSummaryEmptyStream covers record's bits/branch for a stream
// with no branches.
func TestRecordSummaryEmptyStream(t *testing.T) {
	line := recordSummary("w", "i", trace.Counts{}, 6)
	if !strings.HasSuffix(line, "6 bytes (0.00 bits/branch)") {
		t.Fatalf("empty stream summary = %q", line)
	}
}
