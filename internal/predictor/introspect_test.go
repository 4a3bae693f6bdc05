package predictor

import (
	"math"
	"testing"
)

// introspectablePredictors builds every scheme that implements Introspector
// at a small size: the paper's five (bimodal, ghist, gshare, bimode,
// 2bcgskew) plus the modern successors tage and perceptron.
func introspectablePredictors() map[string]Predictor {
	return map[string]Predictor{
		"bimodal":    NewBimodal(1 << 10),
		"ghist":      NewGHist(1 << 10),
		"gshare":     NewGShare(1 << 10),
		"bimode":     NewBiMode(1 << 10),
		"2bcgskew":   NewTwoBcGskew(1 << 10),
		"tage":       NewTAGE(1 << 12),
		"perceptron": NewPerceptron(1 << 10),
	}
}

// expectedTables is how many distinct counter tables each scheme exposes.
// tage reports its bimodal base plus the five tagged banks; perceptron one
// weight table.
var expectedTables = map[string]int{
	"bimodal": 1, "ghist": 1, "gshare": 1, "bimode": 3, "2bcgskew": 4,
	"tage": 6, "perceptron": 1,
}

// fullSharing lists the schemes whose tables all carry ownership-switch
// tracking; tage's tagged banks and perceptron's weight vectors express
// sharing through tags/allocation instead, so their SharingHist stays nil.
var fullSharing = map[string]bool{
	"bimodal": true, "ghist": true, "gshare": true, "bimode": true, "2bcgskew": true,
}

func TestIntrospectAllPredictors(t *testing.T) {
	for name, p := range introspectablePredictors() {
		in, ok := p.(Introspector)
		if !ok {
			t.Errorf("%s does not implement Introspector", name)
			continue
		}
		in.EnableTableStats()
		// Run a stream with enough sites to force sharing in small tables.
		for i := 0; i < 20000; i++ {
			pc := 0x1000 + uint64(i%997)*4
			p.Predict(pc)
			p.Update(pc, i%3 != 0)
		}
		stats := in.Introspect()
		if len(stats) != expectedTables[name] {
			t.Errorf("%s: got %d tables, want %d", name, len(stats), expectedTables[name])
			continue
		}
		for _, s := range stats {
			if s.Name == "" {
				t.Errorf("%s: table with empty name", name)
			}
			if s.Entries <= 0 {
				t.Errorf("%s/%s: entries = %d", name, s.Name, s.Entries)
			}
			var ctrSum uint64
			for _, c := range s.Counters {
				ctrSum += c
			}
			if ctrSum != uint64(s.Entries) {
				t.Errorf("%s/%s: counter distribution sums to %d, want %d", name, s.Name, ctrSum, s.Entries)
			}
			if s.Occupied <= 0 || s.Occupied > s.Entries {
				t.Errorf("%s/%s: occupied = %d of %d", name, s.Name, s.Occupied, s.Entries)
			}
			if s.Entropy < 0 || s.Entropy > 2 {
				t.Errorf("%s/%s: entropy = %v, want within [0,2]", name, s.Name, s.Entropy)
			}
			if fullSharing[name] && s.SharingHist == nil {
				t.Errorf("%s/%s: no sharing histogram", name, s.Name)
			}
			if s.SharingHist != nil {
				var shareSum uint64
				for _, b := range s.SharingHist {
					shareSum += b
				}
				if shareSum != uint64(s.Entries) {
					t.Errorf("%s/%s: sharing histogram sums to %d, want %d", name, s.Name, shareSum, s.Entries)
				}
			}
		}
	}
}

// introspectorExempt lists the registered schemes that intentionally do not
// implement Introspector: the contemporary extensions (their composite
// tables predate the introspection work) and the trivial static baselines,
// which have no tables at all. Every other registered Spec must introspect —
// a new predictor either joins telemetry or earns an explicit entry here.
var introspectorExempt = map[string]bool{
	"agree": true, "gskew": true, "yags": true, "local": true, "mcfarling": true,
	"taken": true, "nottaken": true,
}

func TestEveryRegisteredSpecIntrospects(t *testing.T) {
	for _, name := range Names() {
		p := MustNew(name)
		_, ok := p.(Introspector)
		if introspectorExempt[name] {
			if ok {
				t.Errorf("%s implements Introspector but is on the exemption list — remove it", name)
			}
			continue
		}
		if !ok {
			t.Errorf("%s does not implement Introspector and is not exempt", name)
		}
	}
}

func TestIntrospectSharingCountsSwitches(t *testing.T) {
	p := NewBimodal(16) // 64 entries — tiny, so two sites 64 entries apart alias
	p.EnableTableStats()
	a := uint64(0x1000)
	bpc := a + 64*4 // same index after pcIndex masking
	for i := 0; i < 10; i++ {
		p.Predict(a)
		p.Update(a, true)
		p.Predict(bpc)
		p.Update(bpc, false)
	}
	s := p.Introspect()[0]
	if len(s.SharingHist) < 2 {
		t.Fatalf("sharing histogram %v records no switched entries", s.SharingHist)
	}
	var switched uint64
	for _, b := range s.SharingHist[1:] {
		switched += b
	}
	if switched != 1 {
		t.Errorf("switched entries = %d, want exactly 1 (the shared slot)", switched)
	}
	// 19 ownership switches (every access after the first flips the owner)
	// land in bucket Len32(19)=5.
	if got := len(s.SharingHist) - 1; got != 5 {
		t.Errorf("top sharing bucket = %d, want 5 (19 switches)", got)
	}
}

func TestIntrospectWithoutStatsIsCold(t *testing.T) {
	// Introspect works without EnableTableStats, but occupancy and sharing
	// are unknown (no tags): Occupied 0, SharingHist nil.
	p := NewGShare(1 << 10)
	for i := 0; i < 1000; i++ {
		pc := 0x1000 + uint64(i%97)*4
		p.Predict(pc)
		p.Update(pc, true)
	}
	s := p.Introspect()[0]
	if s.Occupied != 0 {
		t.Errorf("occupied = %d without tags, want 0", s.Occupied)
	}
	if s.SharingHist != nil {
		t.Errorf("sharing hist = %v without switch counters, want nil", s.SharingHist)
	}
}

func TestCounterEntropy(t *testing.T) {
	if got := counterEntropy([4]uint64{8, 0, 0, 0}); got != 0 {
		t.Errorf("single-state entropy = %v, want 0", got)
	}
	if got := counterEntropy([4]uint64{2, 2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("uniform entropy = %v, want 2", got)
	}
	if got := counterEntropy([4]uint64{}); got != 0 {
		t.Errorf("empty entropy = %v, want 0", got)
	}
}

func TestResetClearsStats(t *testing.T) {
	p := NewBimodal(64)
	p.EnableTableStats()
	for i := 0; i < 5000; i++ {
		pc := 0x1000 + uint64(i%701)*4
		p.Predict(pc)
		p.Update(pc, true)
	}
	p.Reset()
	s := p.Introspect()[0]
	if s.Occupied != 0 {
		t.Errorf("occupied after reset = %d, want 0", s.Occupied)
	}
	if len(s.SharingHist) != 1 || s.SharingHist[0] != uint64(s.Entries) {
		t.Errorf("sharing hist after reset = %v, want all entries in bucket 0", s.SharingHist)
	}
	if s.Counters[ctrInit] != uint64(s.Entries) {
		t.Errorf("counters after reset = %v, want all at init state", s.Counters)
	}
}

// TestCountStatesMatchesPerEntry checks the bit-plane popcount against a
// per-entry count, for lengths that leave every possible tail after the
// eight-entry words, and bytes with high bits set (which the count
// ignores).
func TestCountStatesMatchesPerEntry(t *testing.T) {
	s := uint64(7)
	for n := 0; n < 40; n++ {
		b := make([]uint8, n)
		for i := range b {
			s = s*6364136223846793005 + 1442695040888963407
			b[i] = uint8(s >> 56)
		}
		var got, want [4]uint64
		countStates(b, &got)
		for _, v := range b {
			want[v&3]++
		}
		if got != want {
			t.Fatalf("n=%d: counts %v, per-entry %v", n, got, want)
		}
	}
}
