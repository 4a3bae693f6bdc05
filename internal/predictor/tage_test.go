package predictor

import (
	"testing"

	"branchsim/internal/xrand"
)

// mkEvs builds a stream from a generator function.
func mkEvs(n int, f func(i int) ev) []ev {
	out := make([]ev, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestTAGELearnsLongPeriodPattern(t *testing.T) {
	// A loop with trip count 48 needs ~48 bits of history; short-history
	// schemes plateau, TAGE's long components capture it.
	stream := mkEvs(40_000, func(i int) ev { return ev{0x100, i%48 != 47} })

	tage := NewTAGE(8 << 10)
	tageMiss := drive(tage, stream)
	gs := NewGShareHist(8<<10, 10)
	gsMiss := drive(gs, stream)

	if tageMiss > len(stream)/48 {
		// better than mispredicting every loop exit
		t.Errorf("tage: %d/%d misses on a period-48 loop", tageMiss, len(stream))
	}
	if tageMiss >= gsMiss {
		t.Errorf("tage (%d) not better than short-history gshare (%d)", tageMiss, gsMiss)
	}
}

func TestTAGETagsResistAliasing(t *testing.T) {
	// Two opposite-constant branches forced into the same index region: a
	// tagless gshare ping-pongs, TAGE's tags keep them apart (the base
	// bimodal is PC-indexed and the tagged entries tag-match).
	stream := mkEvs(20_000, func(i int) ev {
		if i%2 == 0 {
			return ev{0x100, true}
		}
		return ev{0x100 + 1<<40, false} // differs only above the index bits of a tiny table
	})
	tage := NewTAGE(1 << 10)
	if miss := drive(tage, stream); miss > len(stream)/10 {
		t.Errorf("tage: %d/%d misses under forced aliasing", miss, len(stream))
	}
}

func TestTAGEAllocatesOnMispredict(t *testing.T) {
	tage := NewTAGE(4 << 10)
	// drive a history-dependent branch; eventually tagged entries exist
	stream := mkEvs(5_000, func(i int) ev { return ev{0x200, i%3 == 0} })
	drive(tage, stream)
	allocated := 0
	for _, c := range tage.comps {
		for _, en := range c.e {
			if en.tag != 0 {
				allocated++
			}
		}
	}
	if allocated == 0 {
		t.Fatalf("no tagged entries allocated after 5000 events")
	}
}

func TestFoldHistory(t *testing.T) {
	// folding must be deterministic, fit the width, and depend on all
	// folded bits
	if foldHistory(0, 32, 10) != 0 {
		t.Fatalf("fold of zero history non-zero")
	}
	a := foldHistory(0xdeadbeef, 32, 10)
	if a >= 1<<10 {
		t.Fatalf("fold exceeded width: %#x", a)
	}
	b := foldHistory(0xdeadbeef^(1<<31), 32, 10) // flip the oldest folded bit
	if a == b {
		t.Fatalf("fold ignored a history bit")
	}
	if foldHistory(0xabc, 12, 0) != 0 {
		t.Fatalf("zero-width fold must be 0")
	}
}

func TestPerceptronLearnsLinearlySeparable(t *testing.T) {
	// outcome = history bit 3 (a single-feature function): trivially
	// linearly separable, the perceptron must nail it.
	var hist []bool
	stream := make([]ev, 20_000)
	rng := xrand.New(5)
	for i := range stream {
		var out bool
		if len(hist) >= 4 {
			out = hist[len(hist)-4]
		} else {
			out = rng.Bool(0.5)
		}
		// every 4th event is a random "noise" branch that feeds history
		if i%4 == 3 {
			out = rng.Bool(0.5)
			stream[i] = ev{0x900, out}
		} else {
			stream[i] = ev{0x500, out}
		}
		hist = append(hist, out)
	}
	p := NewPerceptron(4 << 10)
	miss := 0
	for _, e := range stream {
		pred := p.Predict(e.pc)
		if e.pc == 0x500 && pred != e.taken {
			miss++
		}
		p.Update(e.pc, e.taken)
	}
	if miss > 2_000 {
		t.Errorf("perceptron: %d misses on a linearly separable branch", miss)
	}
}

func TestPerceptronCannotLearnXOR(t *testing.T) {
	// outcome = h1 XOR h2 is the canonical non-linearly-separable function:
	// a single-layer perceptron must hover near chance while gshare (a
	// table) learns it exactly. This guards against the implementation
	// accidentally being table-like.
	var h1, h2 bool
	rng := xrand.New(9)
	stream := make([]ev, 30_000)
	for i := range stream {
		switch i % 3 {
		case 0:
			h1 = rng.Bool(0.5)
			stream[i] = ev{0x10, h1}
		case 1:
			h2 = rng.Bool(0.5)
			stream[i] = ev{0x20, h2}
		default:
			stream[i] = ev{0x30, h1 != h2}
		}
	}
	missOn := func(p Predictor, pc uint64) int {
		miss := 0
		for _, e := range stream {
			pred := p.Predict(e.pc)
			if e.pc == pc && pred != e.taken {
				miss++
			}
			p.Update(e.pc, e.taken)
		}
		return miss
	}
	perceptronMiss := missOn(NewPerceptron(8<<10), 0x30)
	gshareMiss := missOn(NewGShare(8<<10), 0x30)
	n := 10_000 // executions of the XOR branch
	if perceptronMiss < n/3 {
		t.Errorf("perceptron learned XOR (%d/%d misses): not a linear model?", perceptronMiss, n)
	}
	if gshareMiss > n/5 {
		t.Errorf("gshare failed XOR (%d/%d misses)", gshareMiss, n)
	}
	if perceptronMiss < 2*gshareMiss {
		t.Errorf("perceptron (%d) unexpectedly close to gshare (%d) on XOR", perceptronMiss, gshareMiss)
	}
}

func TestPerceptronThetaTraining(t *testing.T) {
	// weights must stop growing once |sum| clears θ on a constant branch
	p := NewPerceptron(1 << 10)
	stream := mkEvs(10_000, func(int) ev { return ev{0x40, true} })
	drive(p, stream)
	w := p.row(p.lIdx)
	if int8(w[0]) <= 0 {
		t.Fatalf("bias weight %d not positive after constant-taken training", int8(w[0]))
	}
	if int8(w[0]) == 127 {
		// θ-gated training should stop well before saturation
		t.Fatalf("bias weight saturated; θ gating not working")
	}
}
