package core

import (
	"testing"

	"branchsim/internal/predictor"
)

// spyPredictor records every call so tests can verify what the Combined
// wrapper forwards.
type spyPredictor struct {
	predicts, updates, shifts, resets int
	lastShift                         bool
	ret                               bool
}

func (s *spyPredictor) Name() string  { return "spy" }
func (s *spyPredictor) SizeBits() int { return 42 }
func (s *spyPredictor) Predict(uint64) bool {
	s.predicts++
	return s.ret
}
func (s *spyPredictor) Update(uint64, bool) { s.updates++ }
func (s *spyPredictor) Reset()              { s.resets++ }
func (s *spyPredictor) ShiftHistory(taken bool) {
	s.shifts++
	s.lastShift = taken
}

func hintsWith(pc uint64, taken bool) *HintDB {
	h := NewHintDB("w", "static95", "t")
	h.Set(pc, taken)
	return h
}

func TestCombinedStaticBranchBypassesDynamic(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), NoShift)

	if !c.Predict(0x100) {
		t.Fatalf("static prediction not used")
	}
	c.Update(0x100, false) // mispredicted statically
	if spy.predicts != 0 || spy.updates != 0 || spy.shifts != 0 {
		t.Fatalf("dynamic predictor touched for a hinted branch: %+v", spy)
	}
	st := c.Stats()
	if st.StaticExecs != 1 || st.StaticMispred != 1 || st.DynamicExecs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombinedDynamicBranchFlowsThrough(t *testing.T) {
	spy := &spyPredictor{ret: true}
	c := NewCombined(spy, hintsWith(0x100, true), NoShift)

	if !c.Predict(0x200) {
		t.Fatalf("dynamic prediction not forwarded")
	}
	c.Update(0x200, true)
	if spy.predicts != 1 || spy.updates != 1 {
		t.Fatalf("dynamic path not exercised: %+v", spy)
	}
	if st := c.Stats(); st.DynamicExecs != 1 || st.StaticExecs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombinedShiftOutcome(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), ShiftOutcome)
	c.Predict(0x100)
	c.Update(0x100, false)
	if spy.shifts != 1 || spy.lastShift != false {
		t.Fatalf("outcome not shifted: %+v", spy)
	}
	if spy.updates != 0 {
		t.Fatalf("tables trained for a static branch")
	}
}

func TestCombinedShiftStatic(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), ShiftStatic)
	c.Predict(0x100)
	c.Update(0x100, false) // outcome false, static prediction true
	if spy.shifts != 1 || spy.lastShift != true {
		t.Fatalf("static direction not shifted: %+v", spy)
	}
}

func TestCombinedNoShiftOnDynamicBranches(t *testing.T) {
	// dynamic branches shift via their own Update; Combined must not
	// double-shift
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), ShiftOutcome)
	c.Predict(0x200)
	c.Update(0x200, true)
	if spy.shifts != 0 {
		t.Fatalf("combined double-shifted a dynamic branch")
	}
}

func TestCombinedWithoutShifterIsSafe(t *testing.T) {
	// bimodal has no history register; ShiftOutcome must be a no-op
	bim := predictor.NewBimodal(64)
	c := NewCombined(bim, hintsWith(0x100, true), ShiftOutcome)
	c.Predict(0x100)
	c.Update(0x100, true) // must not panic
}

func TestCombinedNilHintsTransparent(t *testing.T) {
	spy := &spyPredictor{ret: true}
	c := NewCombined(spy, nil, NoShift)
	for pc := uint64(0); pc < 100; pc += 4 {
		c.Predict(pc)
		c.Update(pc, true)
	}
	if spy.predicts != 25 || spy.updates != 25 {
		t.Fatalf("nil-hints wrapper not transparent: %+v", spy)
	}
}

func TestCombinedReset(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), NoShift)
	c.Predict(0x100)
	c.Update(0x100, true)
	c.Reset()
	if spy.resets != 1 {
		t.Fatalf("dynamic reset not forwarded")
	}
	if st := c.Stats(); st.StaticExecs != 0 {
		t.Fatalf("stats survived reset: %+v", st)
	}
	// hints must survive reset (they live in the binary)
	if !c.Predict(0x100) {
		t.Fatalf("hints lost on reset")
	}
	c.Update(0x100, true)
}

func TestCombinedName(t *testing.T) {
	spy := &spyPredictor{}
	if got := NewCombined(spy, nil, NoShift).Name(); got != "spy+none" {
		t.Fatalf("name = %q", got)
	}
	if got := NewCombined(spy, hintsWith(1, true), NoShift).Name(); got != "spy+static95" {
		t.Fatalf("name = %q", got)
	}
	if got := NewCombined(spy, hintsWith(1, true), ShiftOutcome).Name(); got != "spy+static95(shift)" {
		t.Fatalf("name = %q", got)
	}
}

func TestCombinedSizeExcludesHints(t *testing.T) {
	spy := &spyPredictor{}
	big := NewHintDB("w", "s", "t")
	for i := uint64(0); i < 1000; i++ {
		big.Set(i*4, true)
	}
	if NewCombined(spy, big, NoShift).SizeBits() != 42 {
		t.Fatalf("hint bits charged to predictor storage")
	}
}

func TestCombinedCollisionNeverStatic(t *testing.T) {
	// drive two aliasing branches; the hinted one must never report a
	// collision even when the dynamic one does
	bim := predictor.NewBimodal(16) // 64 entries
	c := NewCombined(bim, hintsWith(0x1000, true), NoShift)
	c.EnableCollisionTracking()

	c.Predict(0x1000 + 64*4) // dynamic, installs tag
	c.Update(0x1000+64*4, true)
	c.Predict(0x1000) // static: must not collide, must not touch tags
	if c.LastCollision() {
		t.Fatalf("static branch reported a collision")
	}
	c.Update(0x1000, true)
	c.Predict(0x1000 + 128*4) // dynamic alias of the first
	if !c.LastCollision() {
		t.Fatalf("collision hidden by the wrapper")
	}
	c.Update(0x1000+128*4, true)
}

func TestCombinedIsPredictor(t *testing.T) {
	var _ predictor.Predictor = (*Combined)(nil)
	var _ predictor.Collider = (*Combined)(nil)
	var _ predictor.HistoryShifter = (*Combined)(nil)
}

func TestShiftPolicyString(t *testing.T) {
	cases := map[ShiftPolicy]string{
		NoShift:         "noshift",
		ShiftOutcome:    "shift",
		ShiftStatic:     "shiftstatic",
		ShiftPolicy(42): "ShiftPolicy(42)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

// TestCombinedBatchedPassthrough pins the wrapper onto its dynamic
// component's native kernel — for the paper predictors and for tage and
// the perceptron alike — and checks the hint-free passthrough end to end
// for a self-grading component: per-event correctness and confidence
// grades match the wrapper's own scalar Predict/LastConfidence/Update, and
// the wrapper's split statistics count every branch as dynamic. A hinted
// wrapper keeps the native kernel under every shift policy; only a dynamic
// component without a kernel (yags, local, mcfarling) leaves it scalar.
func TestCombinedBatchedPassthrough(t *testing.T) {
	const n = 5000
	pcs, taken := make([]uint64, n), make([]bool, n)
	s := uint64(3)
	for i := range pcs {
		s = s*6364136223846793005 + 1442695040888963407
		pcs[i] = 0x4000 + (s>>40%300)*4
		taken[i] = s>>20%4 != 0
	}
	for _, spec := range []string{"bimodal:4KB", "ghist:4KB", "gshare:4KB", "agree:4KB", "bimode:4KB", "gskew:4KB",
		"2bcgskew:4KB", "tage:4KB", "perceptron:4KB"} {
		bare, _ := predictor.New(spec)
		if _, native := predictor.Batch(bare); !native {
			t.Errorf("%s: no native kernel", spec)
		}
		for _, shift := range []ShiftPolicy{NoShift, ShiftOutcome, ShiftStatic} {
			if _, native := predictor.Batch(NewCombined(bare, hintsWith(0x4000, true), shift)); !native {
				t.Errorf("%s: hinted wrapper (%s) left the native kernel", spec, shift)
			}
		}
	}
	for _, spec := range []string{"gshare:4KB", "2bcgskew:4KB", "tage:4KB", "perceptron:4KB"} {
		d1, _ := predictor.New(spec)
		d2, _ := predictor.New(spec)
		ref, wrapped := NewCombined(d1, nil, NoShift), NewCombined(d2, nil, NoShift)
		k, native := predictor.Batch(wrapped)
		if !native {
			t.Errorf("%s: hint-free wrapper left the native kernel", spec)
			continue
		}
		ce, grades := predictor.ConfidenceEstimatorOf(ref)
		out := predictor.BlockMetrics{Correct: make([]bool, n), Conf: make([]predictor.Confidence, n)}
		k.RunBlock(pcs, taken, &out)
		for i, pc := range pcs {
			correct := ref.Predict(pc) == taken[i]
			var want predictor.Confidence
			if grades {
				want = ce.LastConfidence()
			}
			ref.Update(pc, taken[i])
			if out.Correct[i] != correct || out.Conf[i] != want {
				t.Fatalf("%s event %d: kernel %v/%+v, scalar wrapper %v/%+v", spec, i, out.Correct[i], out.Conf[i], correct, want)
			}
		}
		if got, want := wrapped.Stats(), ref.Stats(); got != want {
			t.Errorf("%s: wrapper stats %+v after the block, scalar %+v", spec, got, want)
		}
	}
	for _, spec := range []string{"yags:4KB", "local:4KB", "mcfarling:4KB"} {
		bare, _ := predictor.New(spec)
		if _, native := predictor.Batch(NewCombined(bare, hintsWith(0x4000, true), ShiftOutcome)); native {
			t.Errorf("%s: hinted wrapper over a kernel-less predictor reports a native kernel", spec)
		}
	}
}
