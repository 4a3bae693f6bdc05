package core

import (
	"testing"

	"branchsim/internal/predictor"
)

// kernelStream is a deterministic (pc, taken) stream over a few hundred
// sites: a biased hot set, a noisy warm tail and cold strays that collide
// in small tables.
func kernelStream(n int, seed uint64) (pcs []uint64, taken []bool) {
	pcs, taken = make([]uint64, n), make([]bool, n)
	s := seed
	for i := range pcs {
		s = s*6364136223846793005 + 1442695040888963407
		switch s >> 61 {
		case 0, 1, 2, 3:
			pcs[i] = 0x4000 + (s>>40%16)*4
			taken[i] = s>>20%8 != 0
		case 4, 5:
			pcs[i] = 0x8000 + (s>>40%300)*4
			taken[i] = s>>20%2 == 0
		default:
			pcs[i] = 0x100000 + (s>>40%4096)*4
			taken[i] = s>>20%3 == 0
		}
	}
	return pcs, taken
}

// halfHints hints about half the distinct sites of pcs, in both
// directions, chosen by a hash of the PC.
func halfHints(pcs []uint64) *HintDB {
	h := NewHintDB("w", "test", "t")
	for _, pc := range pcs {
		if x := pc * 0x9e3779b97f4a7c15; x>>63 == 1 {
			h.Set(pc, x>>62&1 == 1)
		}
	}
	return h
}

// hintedKernelSpecs are the dynamic components the hinted kernel is
// checked over: every kind of kernel — one table, GAg, bi-mode's banks,
// 2bcgskew's four banks, tage and the perceptron.
var hintedKernelSpecs = []string{"gshare:1KB", "ghist:1KB", "bimode:1KB", "2bcgskew:1KB", "tage:1KB", "perceptron:1KB"}

// scalarEvent is what the scalar wrapper reports for one event, and its
// post-Update state.
type scalarEvent struct {
	correct, collided bool
	conf              predictor.Confidence
	lastCol           bool
	lastConf          predictor.Confidence
}

// TestHintedKernelMatchesScalar is the differential for the wrapper's block
// kernel with hints installed: for each dynamic component, shift policy,
// collision tracking on and off, and block size (0 = the whole stream as
// one block), the kernel must report the scalar wrapper's per-event
// correctness, collision flags and confidence grades, the same
// BlockMetrics counters and CombinedStats, and the same LastCollision and
// LastConfidence after every block. A second kernel run with no per-event
// outputs armed must score the same counters.
func TestHintedKernelMatchesScalar(t *testing.T) {
	pcs, taken := kernelStream(12_000, 5)
	hints := halfHints(pcs)
	if n := hints.Len(); n < 100 {
		t.Fatalf("only %d hinted sites", n)
	}
	for _, spec := range hintedKernelSpecs {
		for _, shift := range []ShiftPolicy{NoShift, ShiftOutcome, ShiftStatic} {
			for _, track := range []bool{true, false} {
				build := func() *Combined {
					d, err := predictor.New(spec)
					if err != nil {
						t.Fatal(err)
					}
					c := NewCombined(d, hints, shift)
					if track {
						c.EnableCollisionTracking()
					}
					return c
				}
				ref := build()
				ce, grades := predictor.ConfidenceEstimatorOf(ref)
				want := make([]scalarEvent, len(pcs))
				var wantBM predictor.BlockMetrics
				for i, pc := range pcs {
					e := &want[i]
					e.correct = ref.Predict(pc) == taken[i]
					e.collided = ref.LastCollision()
					if grades {
						e.conf = ce.LastConfidence()
					}
					ref.Update(pc, taken[i])
					e.lastCol = ref.LastCollision()
					if grades {
						e.lastConf = ce.LastConfidence()
					}
					wantBM.Mispredicts += b2u(!e.correct)
					wantBM.Collisions += b2u(e.collided)
					wantBM.Constructive += b2u(e.collided && e.correct)
					wantBM.Destructive += b2u(e.collided && !e.correct)
					wantBM.TakenCount += b2u(taken[i])
				}
				for _, bs := range []int{1, 5, 1000, 0} {
					name := spec + "/" + shift.String()
					if bs == 0 {
						bs = len(pcs)
					}
					kern, bare := build(), build()
					k, native := predictor.Batch(kern)
					kb, _ := predictor.Batch(bare)
					if !native {
						t.Fatalf("%s: hinted wrapper has no native kernel", name)
					}
					kce, _ := predictor.ConfidenceEstimatorOf(kern)
					var got, gotBare predictor.BlockMetrics
					for lo := 0; lo < len(pcs); lo += bs {
						hi := min(lo+bs, len(pcs))
						n := hi - lo
						got.Correct, got.Collided = make([]bool, n), make([]bool, n)
						got.Conf = make([]predictor.Confidence, n)
						k.RunBlock(pcs[lo:hi], taken[lo:hi], &got)
						kb.RunBlock(pcs[lo:hi], taken[lo:hi], &gotBare)
						for j := range n {
							e := want[lo+j]
							if got.Correct[j] != e.correct || got.Collided[j] != e.collided || got.Conf[j] != e.conf {
								t.Fatalf("%s track=%v bs=%d event %d: kernel %v/%v/%+v, scalar %v/%v/%+v", name, track, bs, lo+j,
									got.Correct[j], got.Collided[j], got.Conf[j], e.correct, e.collided, e.conf)
							}
						}
						e := want[hi-1]
						if kern.LastCollision() != e.lastCol || (grades && kce.LastConfidence() != e.lastConf) {
							t.Fatalf("%s track=%v bs=%d after block ending %d: LastCollision %v / LastConfidence %+v, scalar %v / %+v",
								name, track, bs, hi, kern.LastCollision(), kce.LastConfidence(), e.lastCol, e.lastConf)
						}
					}
					for _, g := range []predictor.BlockMetrics{got, gotBare} {
						if g.Mispredicts != wantBM.Mispredicts || g.Collisions != wantBM.Collisions || g.Constructive != wantBM.Constructive ||
							g.Destructive != wantBM.Destructive || g.TakenCount != wantBM.TakenCount {
							t.Errorf("%s track=%v bs=%d: counters %+v, scalar %+v", name, track, bs, g, wantBM)
						}
					}
					if kern.Stats() != ref.Stats() || bare.Stats() != ref.Stats() {
						t.Errorf("%s track=%v bs=%d: stats %+v / %+v, scalar %+v", name, track, bs, kern.Stats(), bare.Stats(), ref.Stats())
					}
				}
			}
		}
	}
}

// TestHintedKernelInterleavesWithScalar checks that blocks and scalar
// Predict/Update calls can alternate on one wrapper: the kernel leaves the
// wrapper's own state — the static/dynamic split and the last event's
// static flag — where the scalar path would.
func TestHintedKernelInterleavesWithScalar(t *testing.T) {
	pcs, taken := kernelStream(3000, 9)
	hints := halfHints(pcs)
	for _, shift := range []ShiftPolicy{NoShift, ShiftOutcome} {
		ref := NewCombined(predictor.NewGShare(1024), hints, shift)
		mix := NewCombined(predictor.NewGShare(1024), hints, shift)
		ref.EnableCollisionTracking()
		mix.EnableCollisionTracking()
		k, _ := predictor.Batch(mix)
		var misp, refMisp uint64
		for lo := 0; lo < len(pcs); lo += 100 {
			hi := min(lo+100, len(pcs))
			if lo/100%2 == 0 {
				var bm predictor.BlockMetrics
				k.RunBlock(pcs[lo:hi], taken[lo:hi], &bm)
				misp += bm.Mispredicts
			} else {
				for i := lo; i < hi; i++ {
					misp += b2u(mix.Predict(pcs[i]) != taken[i])
					mix.Update(pcs[i], taken[i])
				}
			}
			for i := lo; i < hi; i++ {
				refMisp += b2u(ref.Predict(pcs[i]) != taken[i])
				ref.Update(pcs[i], taken[i])
			}
			if mix.LastCollision() != ref.LastCollision() || mix.lastStatic != ref.lastStatic {
				t.Fatalf("%s: state diverges after events [%d, %d)", shift, lo, hi)
			}
		}
		if misp != refMisp || mix.Stats() != ref.Stats() {
			t.Errorf("%s: %d mispredicts, stats %+v; scalar %d, %+v", shift, misp, mix.Stats(), refMisp, ref.Stats())
		}
	}
}
