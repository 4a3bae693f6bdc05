package experiment

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"branchsim/internal/profile"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// countingProg wraps a workload so the test can count how many times it
// actually executes.
type countingProg struct {
	workload.Program
	execs *atomic.Int64
}

func (p countingProg) Run(ctx context.Context, input string, rec trace.Recorder) error {
	p.execs.Add(1)
	return p.Program.Run(ctx, input, rec)
}

// TestEquivalenceHarnessReplay runs the same grid of arms through a plain
// harness and through one with a replay engine attached — concurrently, so
// arms actually share captures — and demands bit-identical metrics, while
// each (workload, input) pair executes exactly once. Static schemes ride
// along so profile collection goes through the shared capture too.
func TestEquivalenceHarnessReplay(t *testing.T) {
	ctx := context.Background()
	var arms []Arm
	for _, wl := range []string{"compress", "m88ksim"} {
		for _, pred := range []string{"gshare:1KB", "2bcgskew:1KB"} {
			for _, scheme := range []string{"none", "static95"} {
				arms = append(arms, Arm{Workload: wl, Pred: pred, Scheme: scheme})
			}
		}
	}

	direct := testHarness()
	want := make([]sim.Metrics, len(arms))
	for i, a := range arms {
		m, err := direct.Run(ctx, a)
		if err != nil {
			t.Fatalf("direct %v: %v", a, err)
		}
		want[i] = m
	}

	var execs atomic.Int64
	eng := replay.New(4, 0, "")
	defer eng.Close()
	h := testHarness(WithReplay(eng), WithLookup(func(name string) (workload.Program, error) {
		p, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		return countingProg{Program: p, execs: &execs}, nil
	}))

	got := make([]sim.Metrics, len(arms))
	errs := make([]error, len(arms))
	var wg sync.WaitGroup
	for i, a := range arms {
		wg.Add(1)
		go func(i int, a Arm) {
			defer wg.Done()
			got[i], errs[i] = h.Run(ctx, a)
		}(i, a)
	}
	wg.Wait()

	for i, a := range arms {
		if errs[i] != nil {
			t.Errorf("replay %v: %v", a, errs[i])
			continue
		}
		if d := want[i].Diff(got[i]); d != "" {
			t.Errorf("%v: replay harness metrics diverge: %s", a, d)
		}
	}
	// Two workloads on one input each: two executions total — every
	// measurement run and every static95 bias profile fed off a capture.
	if n := execs.Load(); n != 2 {
		t.Errorf("workloads executed %d times, want 2 (one capture per workload/input)", n)
	}
}

// TestHarnessReplayImprovement checks a derived metric (the paper's
// improvement ratio) is unchanged by the engine: identical inputs to the
// ratio imply identical output, so divergence here means a run diverged.
func TestHarnessReplayImprovement(t *testing.T) {
	ctx := context.Background()
	a := Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"}

	direct := testHarness()
	want, err := direct.Improvement(ctx, a)
	if err != nil {
		t.Fatal(err)
	}

	eng := replay.New(2, 0, "")
	defer eng.Close()
	h := testHarness(WithReplay(eng))
	got, err := h.Improvement(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("improvement with replay = %v, direct = %v", got, want)
	}
}

// TestBiasOnlyBlocksMatchPerEvent checks the bias-only profiler's block
// path: replaying a chunk through the block decoder, at any block size,
// yields the profile and instruction count of the per-event decode.
func TestBiasOnlyBlocksMatchPerEvent(t *testing.T) {
	var w trace.ChunkWriter
	s := uint64(5)
	for i := 0; i < 20_000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		if s%5 == 0 {
			w.Ops(s >> 40 % 30)
		}
		w.Branch(0x4000+(s>>20%700)*4, s>>50%3 != 0)
	}
	w.Ops(7)
	data := w.Cut()
	want := &biasOnly{db: profile.NewDB("w", "i")}
	if err := trace.DecodeChunk(data, want); err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	want.db.Save(&wantJSON)
	for _, max := range []int{1, 5, 1000, 0} {
		got := &biasOnly{db: profile.NewDB("w", "i")}
		if err := trace.DecodeChunkBlocks(data, got, &trace.BlockBuf{Max: max}); err != nil {
			t.Fatal(err)
		}
		var gotJSON bytes.Buffer
		got.db.Save(&gotJSON)
		if got.instr != want.instr || !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Errorf("block size %d: %d instructions, profile equal %v; per-event %d", max, got.instr,
				bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()), want.instr)
		}
	}
	var _ trace.BlockSink = want
	if _, ok := any(want).(interface{ BatchKernel() bool }); ok {
		t.Error("biasOnly reports BatchKernel: captures would build the decoded-block cache for it")
	}
}
