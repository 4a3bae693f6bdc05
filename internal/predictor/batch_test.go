package predictor

import (
	"fmt"
	"reflect"
	"testing"
)

// kernelSpecs are the predictors with native devirtualized kernels: the
// seven table predictors plus the tagged and neural successors.
var kernelSpecs = []string{
	"bimodal:1KB", "ghist:1KB", "gshare:1KB", "agree:1KB",
	"bimode:1KB", "gskew:1KB", "2bcgskew:1KB", "tage:1KB", "perceptron:1KB",
}

// scalarOnlySpecs are registered predictors that run on the generic scalar
// wrapper.
var scalarOnlySpecs = []string{"yags:1KB", "local:1KB", "mcfarling:1KB"}

// testStream derives a deterministic (pc, taken) stream from a SplitMix64
// walk. The PC distribution is deliberately skewed — a few hot branches, a
// long tail, occasional far jumps — so tagged tables see both repeated hits
// and ownership switches, and the taken bits mix biased and noisy sites.
func testStream(n int, seed uint64) (pcs []uint64, taken []bool) {
	pcs = make([]uint64, n)
	taken = make([]bool, n)
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	base := uint64(0x1_2000_0000)
	for i := range pcs {
		r := next()
		switch r % 8 {
		case 0, 1, 2, 3: // hot set: eight sites, heavily reused
			pcs[i] = base + (r>>8%8)*4
		case 4, 5: // warm tail
			pcs[i] = base + 0x1000 + (r>>8%512)*4
		case 6: // cold, collision-prone
			pcs[i] = base + 0x100000 + (r>>8%65536)*4
		default: // far region exercising wide index bits
			pcs[i] = base<<1 + (r>>8%1024)*4
		}
		// Hot sites are biased taken; everything else is noisy.
		if pcs[i] < base+0x40 {
			taken[i] = r>>40%8 != 0
		} else {
			taken[i] = r>>40%2 == 0
		}
	}
	return pcs, taken
}

// newKernelPair builds two identical predictors from spec: ref driven
// through the generic scalar fallback and kern through the native kernel.
// Both have collision tracking enabled when track is set.
func newKernelPair(t *testing.T, spec string, track bool) (ref, kern BatchSim, pRef, pKern Predictor) {
	t.Helper()
	p1, err := New(spec)
	if err != nil {
		t.Fatalf("New(%q): %v", spec, err)
	}
	p2, _ := New(spec)
	if track {
		p1.(Collider).EnableCollisionTracking()
		p2.(Collider).EnableCollisionTracking()
	}
	k, native := Batch(p2)
	if !native {
		t.Fatalf("Batch(%q): no native kernel", spec)
	}
	return newScalarBlock(p1), k, p1, p2
}

// blockTotals is the comparable accumulation of BlockMetrics counters.
type blockTotals struct {
	Mispredicts, Collisions, Constructive, Destructive, TakenCount uint64
}

// runBlocks drives sim over the stream in blocks of size bs, collecting the
// accumulated metrics and the per-event correctness/collision bits.
func runBlocks(sim BatchSim, pcs []uint64, taken []bool, bs int) (blockTotals, []bool, []bool) {
	total, correct, collided, _ := runBlocksConf(sim, pcs, taken, bs)
	return total, correct, collided
}

// runBlocksConf is runBlocks with the per-event confidence output armed too
// (left zero by predictors that do not grade themselves).
func runBlocksConf(sim BatchSim, pcs []uint64, taken []bool, bs int) (blockTotals, []bool, []bool, []Confidence) {
	correct := make([]bool, len(pcs))
	collided := make([]bool, len(pcs))
	conf := make([]Confidence, len(pcs))
	var total blockTotals
	for start := 0; start < len(pcs); start += bs {
		end := min(start+bs, len(pcs))
		out := BlockMetrics{Correct: correct[start:end], Collided: collided[start:end], Conf: conf[start:end]}
		sim.RunBlock(pcs[start:end], taken[start:end], &out)
		total.Mispredicts += out.Mispredicts
		total.Collisions += out.Collisions
		total.Constructive += out.Constructive
		total.Destructive += out.Destructive
		total.TakenCount += out.TakenCount
	}
	return total, correct, collided, conf
}

// TestBatchNativeKernels pins which predictors devirtualize: the seven
// table predictors and the tage and perceptron successors must provide a
// native kernel, and the remaining schemes must fall back to the scalar
// wrapper (native=false), never silently.
func TestBatchNativeKernels(t *testing.T) {
	for _, spec := range kernelSpecs {
		p, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, native := Batch(p); !native {
			t.Errorf("Batch(%q): want a native kernel, got the scalar fallback", spec)
		}
	}
	for _, spec := range scalarOnlySpecs {
		p, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, native := Batch(p); native {
			t.Errorf("Batch(%q): unexpected native kernel", spec)
		}
	}
}

// TestKernelMatchesScalar is the core per-predictor differential: for every
// kernel, every block size (including the degenerate size 1, which must
// reduce exactly to the scalar protocol), and collision tracking on or off,
// the kernel must score bit-identical per-event correctness and collision
// flags and leave the predictor in a state indistinguishable from the
// scalar path.
func TestKernelMatchesScalar(t *testing.T) {
	pcs, taken := testStream(20_000, 12345)
	for _, spec := range kernelSpecs {
		for _, track := range []bool{false, true} {
			for _, bs := range []int{1, 7, 64, 4096} {
				name := fmt.Sprintf("%s/track=%v/block=%d", spec, track, bs)
				t.Run(name, func(t *testing.T) {
					ref, kern, p1, p2 := newKernelPair(t, spec, track)
					wm, wCorrect, wCollided, wConf := runBlocksConf(ref, pcs, taken, bs)
					gm, gCorrect, gCollided, gConf := runBlocksConf(kern, pcs, taken, bs)
					if gm != wm {
						t.Fatalf("metrics diverge:\nkernel %+v\nscalar %+v", gm, wm)
					}
					var wantTaken uint64
					for _, tk := range taken {
						if tk {
							wantTaken++
						}
					}
					if gm.TakenCount != wantTaken {
						t.Fatalf("TakenCount = %d, want %d", gm.TakenCount, wantTaken)
					}
					for i := range pcs {
						if gCorrect[i] != wCorrect[i] || gCollided[i] != wCollided[i] {
							t.Fatalf("event %d: kernel correct/collided = %v/%v, scalar %v/%v",
								i, gCorrect[i], gCollided[i], wCorrect[i], wCollided[i])
						}
						if gConf[i] != wConf[i] {
							t.Fatalf("event %d: kernel confidence %+v, scalar LastConfidence %+v", i, gConf[i], wConf[i])
						}
					}
					if ce1, ok := p1.(ConfidenceEstimator); ok {
						if c1, c2 := ce1.LastConfidence(), p2.(ConfidenceEstimator).LastConfidence(); c1 != c2 {
							t.Fatalf("post-block LastConfidence %+v, scalar %+v", c2, c1)
						}
					}
					// State equality: a scalar probe pass over both
					// predictors must agree on every prediction, so the
					// kernel left counters, tags and history exactly where
					// the scalar path did. Interleaving scalar calls after
					// RunBlock is explicitly legal.
					probe, pTaken := testStream(2_000, 999)
					for i, pc := range probe {
						d1, d2 := p1.Predict(pc), p2.Predict(pc)
						if d1 != d2 {
							t.Fatalf("probe %d (pc %#x): post-block state diverges (scalar predicts %v, kernel-trained %v)", i, pc, d1, d2)
						}
						if track {
							c1 := p1.(Collider).LastCollision()
							c2 := p2.(Collider).LastCollision()
							if c1 != c2 {
								t.Fatalf("probe %d (pc %#x): LastCollision %v vs %v", i, pc, c1, c2)
							}
						}
						p1.Update(pc, pTaken[i])
						p2.Update(pc, pTaken[i])
					}
				})
			}
		}
	}
}

// TestKernelBlockSplitInvariance proves block boundaries are unobservable:
// the same stream cut into blocks of any size — including awkward primes
// that land boundaries mid-saturation and mid-history-pattern — yields the
// same accumulated metrics as one whole-stream block.
func TestKernelBlockSplitInvariance(t *testing.T) {
	pcs, taken := testStream(10_000, 777)
	for _, spec := range kernelSpecs {
		t.Run(spec, func(t *testing.T) {
			_, whole, _, _ := newKernelPair(t, spec, true)
			wm, _, _ := runBlocks(whole, pcs, taken, len(pcs))
			for _, bs := range []int{1, 2, 3, 13, 127, 4096} {
				_, kern, _, _ := newKernelPair(t, spec, true)
				gm, _, _ := runBlocks(kern, pcs, taken, bs)
				if gm != wm {
					t.Errorf("block size %d: metrics %+v, whole-stream %+v", bs, gm, wm)
				}
			}
		})
	}
}

// TestBimodalSaturationAtBlockEdges pins the 2-bit counter arithmetic
// analytically across a block boundary: from the weakly-not-taken power-on
// state, a run of 8 taken then 4 not-taken on one PC mispredicts exactly
// 1 + 2 times (the first taken, then the two flips back through the strong
// states), no matter where the blocks cut the saturation run.
func TestBimodalSaturationAtBlockEdges(t *testing.T) {
	n := 12
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	for i := range pcs {
		pcs[i] = 0x1_2000_0000
		taken[i] = i < 8
	}
	for _, bs := range []int{1, 3, 4, 5, 12} {
		p, err := New("bimodal:1KB")
		if err != nil {
			t.Fatal(err)
		}
		kern, native := Batch(p)
		if !native {
			t.Fatal("bimodal: no native kernel")
		}
		m, _, _ := runBlocks(kern, pcs, taken, bs)
		if m.Mispredicts != 3 {
			t.Errorf("block size %d: %d mispredicts, want 3", bs, m.Mispredicts)
		}
		if m.TakenCount != 8 {
			t.Errorf("block size %d: TakenCount %d, want 8", bs, m.TakenCount)
		}
	}
}

// TestHistoryCarriesAcrossBlocks proves the hoisted history register is
// written back between RunBlock calls: a strict alternation on one branch is
// perfectly predictable once global history distinguishes the two phases,
// so after warmup a history predictor must stop mispredicting — even when
// every block holds a single event and the correlation spans every block
// boundary.
func TestHistoryCarriesAcrossBlocks(t *testing.T) {
	n := 4_096
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	for i := range pcs {
		pcs[i] = 0x1_2000_0000
		taken[i] = i%2 == 0
	}
	for _, spec := range []string{"ghist:1KB", "gshare:1KB"} {
		for _, bs := range []int{1, 3, 64} {
			p, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			kern, _ := Batch(p)
			warm := n / 2
			runBlocks(kern, pcs[:warm], taken[:warm], bs)
			m, _, _ := runBlocks(kern, pcs[warm:], taken[warm:], bs)
			if m.Mispredicts != 0 {
				t.Errorf("%s block size %d: %d mispredicts on a learned alternation, want 0",
					spec, bs, m.Mispredicts)
			}
		}
	}
}

// TestKernelResetReuse is the between-arms contract: Reset must restore the
// power-on state the kernel observes, so re-running the same stream through
// the same predictor scores identically, and the collision flag from the
// previous arm does not leak into the next.
func TestKernelResetReuse(t *testing.T) {
	pcs, taken := testStream(8_000, 4242)
	for _, spec := range kernelSpecs {
		t.Run(spec, func(t *testing.T) {
			p, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			p.(Collider).EnableCollisionTracking()
			kern, _ := Batch(p)
			first, c1, l1 := runBlocks(kern, pcs, taken, 64)
			p.Reset()
			if p.(Collider).LastCollision() {
				t.Error("LastCollision survived Reset")
			}
			second, c2, l2 := runBlocks(kern, pcs, taken, 64)
			if first != second {
				t.Fatalf("rerun after Reset diverges:\nfirst  %+v\nsecond %+v", first, second)
			}
			for i := range c1 {
				if c1[i] != c2[i] || l1[i] != l2[i] {
					t.Fatalf("event %d: rerun correct/collided %v/%v, first run %v/%v",
						i, c2[i], l2[i], c1[i], l1[i])
				}
			}
		})
	}
}

// TestScalarFallbackDrivesPredictor sanity-checks the generic wrapper: for
// a predictor without a kernel it must still run the block and report
// native=false, with metrics matching a hand-driven scalar loop.
func TestScalarFallbackDrivesPredictor(t *testing.T) {
	pcs, taken := testStream(4_000, 11)
	spec := scalarOnlySpecs[0]
	p1, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := New(spec)
	kern, native := Batch(p2)
	if native {
		t.Fatalf("%s grew a native kernel; update this test to cover a scalar-only predictor", spec)
	}
	var wantMisp, wantTaken uint64
	for i, pc := range pcs {
		if p1.Predict(pc) != taken[i] {
			wantMisp++
		}
		if taken[i] {
			wantTaken++
		}
		p1.Update(pc, taken[i])
	}
	m, _, _ := runBlocks(kern, pcs, taken, 512)
	if m.Mispredicts != wantMisp || m.TakenCount != wantTaken {
		t.Fatalf("fallback metrics %+v, want mispredicts %d taken %d", m, wantMisp, wantTaken)
	}
}

// TestKernelStreamCountersMatchScalar extends the differential to the state
// only table introspection sees: with EnableTableStats on both sides, the
// tage kernel must leave every bank's stream counters (tag hits and misses,
// provider and alternate attribution, allocations and refusals) and the
// perceptron kernel its margin histogram exactly where the scalar path
// does, along with every table snapshot. Snapshots are compared after
// every block, at every block size, so the counters flushed per block add
// up to the per-event ones, and the useful-bit aging step must land on the
// same event.
func TestKernelStreamCountersMatchScalar(t *testing.T) {
	pcs, taken := testStream(6_000, 5150)
	for _, spec := range []string{"tage:1KB", "tage:8KB", "perceptron:1KB"} {
		for _, bs := range []int{1, 7, 4096} {
			t.Run(fmt.Sprintf("%s/block=%d", spec, bs), func(t *testing.T) {
				p1, _ := New(spec)
				p2, _ := New(spec)
				p1.(Introspector).EnableTableStats()
				p2.(Introspector).EnableTableStats()
				if t1, ok := p1.(*TAGE); ok {
					// Start near the useful-bit aging period so the
					// stream crosses a global aging step.
					t1.tick, p2.(*TAGE).tick = 1<<18-300, 1<<18-300
				}
				ref := newScalarBlock(p1)
				kern, _ := Batch(p2)
				var counted uint64
				for lo := 0; lo < len(pcs); lo += bs {
					hi := min(lo+bs, len(pcs))
					var o1, o2 BlockMetrics
					ref.RunBlock(pcs[lo:hi], taken[lo:hi], &o1)
					kern.RunBlock(pcs[lo:hi], taken[lo:hi], &o2)
					want := p1.(TaggedIntrospector).IntrospectTagged()
					got := p2.(TaggedIntrospector).IntrospectTagged()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("after event %d: tagged banks diverge:\nkernel %+v\nscalar %+v", hi, got, want)
					}
					if g, w := p2.(Introspector).Introspect(), p1.(Introspector).Introspect(); !reflect.DeepEqual(g, w) {
						t.Fatalf("after event %d: table stats diverge:\nkernel %+v\nscalar %+v", hi, g, w)
					}
					counted = 0
					for _, b := range got {
						counted += b.Hits + b.Provider + uint64(len(b.Margin))
					}
				}
				if counted == 0 {
					t.Error("no stream counters accumulated; EnableTableStats did not arm them")
				}
				if t1, ok := p1.(*TAGE); ok && t1.tick >= 1<<18-300 {
					t.Errorf("tick %d: the stream never crossed the aging step", t1.tick)
				}
			})
		}
	}
}

// TestTAGEFoldOracle checks the kernel's incremental folded histories
// against foldHistory, the scalar path's from-scratch fold, after every
// event: blocks of one event keep the folds flowing from block to block, and
// static-hint history shifts, scalar Predict/Update steps and Reset move
// the history behind the kernel's back in between.
func TestTAGEFoldOracle(t *testing.T) {
	pcs, taken := testStream(30_000, 2718)
	rng := uint64(99)
	for _, size := range []int{1 << 10, 8 << 10, 64 << 10} {
		tg := NewTAGE(size)
		kern, _ := Batch(tg)
		var out BlockMetrics
		incremental := 0
		for i, pc := range pcs {
			rng = rng*6364136223846793005 + 1442695040888963407
			switch rng >> 58 {
			case 0:
				tg.ShiftHistory(rng>>40&1 == 1)
			case 1:
				tg.Predict(pc)
				tg.Update(pc, taken[i])
				continue
			case 2:
				if rng>>20%64 == 0 {
					tg.Reset()
				}
			}
			if tg.fHist == tg.hist.bits {
				incremental++
			}
			kern.RunBlock(pcs[i:i+1], taken[i:i+1], &out)
			h := tg.hist.bits
			if tg.fHist != h {
				t.Fatalf("size %d event %d: folds cached for history %#x, register holds %#x", size, i, tg.fHist, h)
			}
			for j := range tg.comps {
				c := &tg.comps[j]
				want := [3]uint64{
					foldHistory(h, c.histLen, log2(len(c.e))),
					foldHistory(h, c.histLen, c.tagBits),
					foldHistory(h, c.histLen, c.tagBits-1),
				}
				if got := [3]uint64{c.fIdx, c.fTag, c.fTag1}; got != want {
					t.Fatalf("size %d event %d component t%d: folds %#x, foldHistory %#x", size, i, c.histLen, got, want)
				}
			}
		}
		if incremental < len(pcs)/2 {
			t.Errorf("size %d: only %d of %d events advanced cached folds", size, incremental, len(pcs))
		}
	}
}
