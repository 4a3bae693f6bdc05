package predictor

import "testing"

// driveTagged runs a mixed stream through p with table stats on.
func driveTagged(p Predictor, n int) {
	p.(TaggedIntrospector).EnableTableStats()
	for i := 0; i < n; i++ {
		pc := 0x1000 + uint64(i%499)*4
		p.Predict(pc)
		p.Update(pc, (i>>2)%3 != 0)
	}
}

func TestIntrospectTaggedTAGE(t *testing.T) {
	p := NewTAGE(1 << 12)
	driveTagged(p, 50000)
	banks := p.IntrospectTagged()
	if len(banks) != len(tageHistLens)+1 {
		t.Fatalf("got %d banks, want %d", len(banks), len(tageHistLens)+1)
	}
	if banks[0].Name != "base" || banks[0].HistLen != 0 || banks[0].TagBits != 0 {
		t.Errorf("bank 0 = %+v, want untagged base", banks[0])
	}
	var provSum uint64
	for _, b := range banks {
		provSum += b.Provider
	}
	if provSum != 50000 {
		t.Errorf("provider attributions sum to %d, want one per prediction (50000)", provSum)
	}
	var allocs uint64
	for i, b := range banks[1:] {
		if b.HistLen != tageHistLens[i] {
			t.Errorf("bank %s: histLen %d, want %d", b.Name, b.HistLen, tageHistLens[i])
		}
		if b.TagBits != 7+i {
			t.Errorf("bank %s: tagBits %d, want %d", b.Name, b.TagBits, 7+i)
		}
		if b.Hits+b.Misses != 50000 {
			t.Errorf("bank %s: hits+misses = %d, want one lookup per prediction", b.Name, b.Hits+b.Misses)
		}
		if b.AltUsed > b.Provider {
			t.Errorf("bank %s: altUsed %d exceeds provider %d", b.Name, b.AltUsed, b.Provider)
		}
		var ctrSum, uSum uint64
		for _, c := range b.Ctr {
			ctrSum += c
		}
		for _, u := range b.Useful {
			uSum += u
		}
		if ctrSum != uint64(b.Entries) || uSum != uint64(b.Entries) {
			t.Errorf("bank %s: ctr/useful histograms sum to %d/%d, want %d", b.Name, ctrSum, uSum, b.Entries)
		}
		if b.Occupied < 0 || b.Occupied > b.Entries {
			t.Errorf("bank %s: occupied %d of %d", b.Name, b.Occupied, b.Entries)
		}
		allocs += b.Allocs
	}
	if allocs == 0 {
		t.Error("no allocations recorded over a mispredicting stream")
	}
}

func TestIntrospectTaggedPerceptron(t *testing.T) {
	p := NewPerceptron(1 << 10)
	driveTagged(p, 50000)
	banks := p.IntrospectTagged()
	if len(banks) != 1 {
		t.Fatalf("got %d banks, want 1", len(banks))
	}
	b := banks[0]
	if b.Name != "weights" || b.HistLen != perceptronHistLen {
		t.Errorf("bank = %+v, want weights/%d", b, perceptronHistLen)
	}
	var wSum uint64
	for _, c := range b.Ctr {
		wSum += c
	}
	if want := uint64(b.Entries * (perceptronHistLen + 1)); wSum != want {
		t.Errorf("weight histogram sums to %d, want %d weights", wSum, want)
	}
	var margins uint64
	for _, m := range b.Margin {
		margins += m
	}
	if margins != 50000 {
		t.Errorf("margin histogram sums to %d, want one sample per prediction", margins)
	}
	if b.Occupied == 0 {
		t.Error("no occupied weight vectors after 50000 branches")
	}
	if b.Saturated > wSum {
		t.Errorf("saturated %d exceeds weight count %d", b.Saturated, wSum)
	}
}

// TestTaggedStatsOffByDefault: without EnableTableStats the stream counters
// never accumulate — the disabled path is one boolean test.
func TestTaggedStatsOffByDefault(t *testing.T) {
	p := NewTAGE(1 << 11)
	for i := 0; i < 10000; i++ {
		pc := 0x1000 + uint64(i%97)*4
		p.Predict(pc)
		p.Update(pc, i%2 == 0)
	}
	for _, b := range p.IntrospectTagged() {
		if b.Hits+b.Misses+b.Provider+b.Allocs != 0 {
			t.Errorf("bank %s accumulated stream counters with stats off: %+v", b.Name, b)
		}
	}
	q := NewPerceptron(1 << 10)
	for i := 0; i < 1000; i++ {
		q.Predict(0x1000)
		q.Update(0x1000, true)
	}
	if got := q.IntrospectTagged()[0].Margin; len(got) != 1 || got[0] != 0 {
		t.Errorf("margin histogram accumulated with stats off: %v", got)
	}
}

// TestTaggedResetClearsStreamCounters: Reset returns the banks to power-on.
func TestTaggedResetClearsStreamCounters(t *testing.T) {
	p := NewTAGE(1 << 11)
	driveTagged(p, 20000)
	p.Reset()
	for _, b := range p.IntrospectTagged() {
		if b.Hits+b.Misses+b.Provider+b.AltUsed+b.Allocs+b.AllocFails != 0 {
			t.Errorf("bank %s kept stream counters across Reset: %+v", b.Name, b)
		}
		if b.Occupied != 0 {
			t.Errorf("bank %s occupied %d after Reset", b.Name, b.Occupied)
		}
	}
}
