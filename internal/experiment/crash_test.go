package experiment

import (
	"context"
	"fmt"
	"testing"

	"branchsim/internal/faults"
	"branchsim/internal/fsx"
	"branchsim/internal/sim"
)

// crashMatrixArms is the tiny grid the kill matrix sweeps: small predictors
// on the two fastest workloads, with one hybrid scheme so the checkpoint's
// profile records are on the crash path too, not just its run records.
func crashMatrixArms() []Arm {
	return []Arm{
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"},
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"},
		{Workload: "ijpeg", Pred: "bimodal:1KB", Scheme: "none"},
	}
}

// runMatrix sweeps the grid, returning per-arm metrics. Errors are returned
// per arm so a crashing sweep can keep limping like a dying process would.
func runMatrix(ctx context.Context, h *Harness, arms []Arm) ([]sim.Metrics, []error) {
	ms := make([]sim.Metrics, len(arms))
	errs := make([]error, len(arms))
	for i, a := range arms {
		ms[i], errs[i] = h.Run(ctx, a)
	}
	return ms, errs
}

// TestCrashRecoveryKillMatrix is the durability acceptance test: the
// checkpointed pipeline is killed at EVERY write boundary its filesystem
// traffic has — mid-record, between the fsync and the rename, before the
// directory sync, everywhere — and after each kill a fresh harness resuming
// from the same directory must produce metrics bit-identical to an
// uninterrupted run, with zero wrong results. A first pass with a counting
// filesystem discovers how many boundaries the sweep crosses; one sub-test
// per boundary then crashes exactly there.
func TestCrashRecoveryKillMatrix(t *testing.T) {
	arms := crashMatrixArms()

	// Reference: an uninterrupted, checkpoint-free sweep.
	ref, errs := runMatrix(context.Background(), testHarness(), arms)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reference arm %+v: %v", arms[i], err)
		}
	}

	// Boundary discovery: the same sweep through a counting filesystem.
	countPlan := faults.NewPlan()
	{
		ck, err := OpenCheckpointFS(t.TempDir(), &faults.FS{Inner: fsx.OS, Plan: countPlan})
		if err != nil {
			t.Fatal(err)
		}
		h := testHarness(WithCheckpoint(ck))
		if _, errs := runMatrix(context.Background(), h, arms); errs[0] != nil || errs[1] != nil || errs[2] != nil {
			t.Fatalf("counting sweep failed: %v", errs)
		}
	}
	total := countPlan.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few write boundaries counted: %d", total)
	}

	for n := uint64(1); n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("boundary-%02d", n), func(t *testing.T) {
			dir := t.TempDir()
			// The doomed run: crash at boundary n. OnCrash cancels the
			// sweep's context, the way a dead process stops scheduling
			// work; whatever torn state the crash left stays in dir.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ffs := &faults.FS{
				Inner:   fsx.OS,
				Plan:    faults.NewPlan(faults.Fault{At: n, Kind: faults.KindCrash}),
				OnCrash: cancel,
			}
			if ck, err := OpenCheckpointFS(dir, ffs); err == nil {
				runMatrix(ctx, testHarness(WithCheckpoint(ck)), arms) // arm errors are the crash, expected
			}
			// An open that crashed is a death before any record landed;
			// recovery starts from whatever the directory holds.

			// The restart: same directory, healthy filesystem. Every arm
			// must finish and match the reference bit for bit.
			ck, err := OpenCheckpoint(dir)
			if err != nil {
				t.Fatalf("reopening checkpoint after crash: %v", err)
			}
			got, errs := runMatrix(context.Background(), testHarness(WithCheckpoint(ck)), arms)
			for i := range arms {
				if errs[i] != nil {
					t.Fatalf("arm %+v failed after crash at boundary %d: %v", arms[i], n, errs[i])
				}
				if d := ref[i].Diff(got[i]); d != "" {
					t.Errorf("arm %+v diverges after crash at boundary %d: %s", arms[i], n, d)
				}
			}
		})
	}
}
