package branchsim_test

import (
	"context"
	"testing"

	"branchsim"
)

// TestGoldenSynthResults pins the exact deterministic outcome of every
// predictor on the synthetic test stream. The simulator is fully
// deterministic (fixed-seed SplitMix64 inputs, in-order trace-driven
// protocol), so any change here is a *behavioural* change to a predictor or
// to the stream — which must be deliberate and show up in review, because it
// shifts every experiment table.
//
// When a change is intentional, regenerate with:
//
//	for each spec: Simulate(synth/test) and record Mispredicts, Collisions.Total
func TestGoldenSynthResults(t *testing.T) {
	golden := []struct {
		spec       string
		mispred    uint64
		collisions uint64
	}{
		{"bimodal:1KB", 13874, 0},
		{"ghist:1KB", 11403, 29886},
		{"gshare:1KB", 12898, 24382},
		{"bimode:1KB", 12452, 25244},
		{"2bcgskew:1KB", 12628, 37527},
		{"agree:1KB", 15522, 24382},
		{"gskew:1KB", 13054, 27344},
		{"yags:1KB", 13771, 978},
		{"local:1KB", 14816, 36222},
		{"mcfarling:1KB", 11315, 27344},
		{"tage:1KB", 11004, 39963},
		{"perceptron:1KB", 10732, 30719},
		// Larger modern tables: the kernel-vs-scalar checks share table
		// storage, so these pin its layout. Perceptron collisions reach 0
		// on synth from 16KB.
		{"tage:32KB", 10804, 39369},
		{"perceptron:8KB", 10341, 16465},
	}
	for _, g := range golden {
		m, err := branchsim.Simulate(context.Background(),
			branchsim.Workload("synth"),
			branchsim.Input(branchsim.InputTest),
			branchsim.WithPredictorSpec(g.spec),
			branchsim.WithCollisions(),
		)
		if err != nil {
			t.Fatal(err)
		}
		if m.Mispredicts != g.mispred || m.Collisions.Total != g.collisions {
			t.Errorf("%s: got %d mispredicts / %d collisions, golden %d / %d",
				g.spec, m.Mispredicts, m.Collisions.Total, g.mispred, g.collisions)
		}
	}
}

// TestGoldenWorkloadStreams pins each workload's test-input stream totals,
// catching accidental changes to input generation, site layout or
// instruction accounting (which silently invalidate recorded experiment
// numbers).
func TestGoldenWorkloadStreams(t *testing.T) {
	golden := map[string]struct{ instr, branches uint64 }{}
	for _, name := range branchsim.Workloads() {
		m, err := branchsim.Simulate(context.Background(),
			branchsim.Workload(name),
			branchsim.Input(branchsim.InputTest),
			branchsim.WithPredictorSpec("taken"),
		)
		if err != nil {
			t.Fatal(err)
		}
		golden[name] = struct{ instr, branches uint64 }{m.Instructions, m.Branches}
	}
	want := map[string]struct{ instr, branches uint64 }{
		"compress": {967613, 122359},
		"li":       {1664034, 231972},
		"vortex":   {4917062, 572998},
		"gcc":      {6974501, 1110014},
		"go":       {1759850, 212708},
		"ijpeg":    {388912, 22299},
		"m88ksim":  {1727885, 227773},
		"perl":     {1365825, 176767},
		"synth":    {320000, 40000},
	}
	for name, w := range want {
		g, ok := golden[name]
		if !ok {
			t.Errorf("workload %s missing", name)
			continue
		}
		if g != w {
			t.Errorf("%s: stream totals changed: got %+v, golden %+v", name, g, w)
		}
	}
}
