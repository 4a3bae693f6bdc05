package core

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"branchsim/internal/xrand"
)

func TestHintDBSetLookup(t *testing.T) {
	h := NewHintDB("gcc", "static95", "train")
	h.Set(0x100, true)
	h.Set(0x104, false)

	if taken, ok := h.Lookup(0x100); !ok || !taken {
		t.Fatalf("lookup 0x100 = %v %v", taken, ok)
	}
	if taken, ok := h.Lookup(0x104); !ok || taken {
		t.Fatalf("lookup 0x104 = %v %v", taken, ok)
	}
	if _, ok := h.Lookup(0x108); ok {
		t.Fatalf("unhinted branch found")
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestHintDBNilLen(t *testing.T) {
	var h *HintDB
	if h.Len() != 0 {
		t.Fatalf("nil hint db len != 0")
	}
}

func TestHintsSorted(t *testing.T) {
	h := NewHintDB("w", "s", "i")
	for _, pc := range []uint64{40, 4, 400} {
		h.Set(pc, true)
	}
	hs := h.Hints()
	for i := 1; i < len(hs); i++ {
		if hs[i-1].PC >= hs[i].PC {
			t.Fatalf("hints not sorted: %v", hs)
		}
	}
}

func TestHintsSaveLoadRoundTrip(t *testing.T) {
	h := NewHintDB("gcc", "staticacc", "train+ref")
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		h.Set(uint64(i*4), rng.Bool(0.5))
	}
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "gcc" || got.Scheme != "staticacc" || got.Profile != "train+ref" {
		t.Fatalf("metadata lost: %+v", got)
	}
	if got.Len() != h.Len() {
		t.Fatalf("len %d, want %d", got.Len(), h.Len())
	}
	for _, hint := range h.Hints() {
		taken, ok := got.Lookup(hint.PC)
		if !ok || taken != hint.Taken {
			t.Fatalf("hint %#x lost", hint.PC)
		}
	}
}

func TestHintsSaveLoadProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		h := NewHintDB("w", "s", "i")
		for i := 0; i < int(n); i++ {
			h.Set(rng.Uint64(), rng.Bool(0.5))
		}
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			return false
		}
		got, err := LoadHints(&buf)
		if err != nil || got.Len() != h.Len() {
			return false
		}
		for _, hint := range h.Hints() {
			taken, ok := got.Lookup(hint.PC)
			if !ok || taken != hint.Taken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadHintsRejects(t *testing.T) {
	if _, err := LoadHints(strings.NewReader("junk")); err == nil {
		t.Fatalf("garbage accepted")
	}
	if _, err := LoadHints(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatalf("bad version accepted")
	}
	dup := `{"version":1,"workload":"w","scheme":"s","hints":[{"pc":4,"taken":true},{"pc":4,"taken":false}]}`
	if _, err := LoadHints(strings.NewReader(dup)); err == nil {
		t.Fatalf("duplicate hint accepted")
	}
}

// TestHintTable covers the hint table at its edges: Set overwrites in place,
// PC 0 and 2^64−1 miss until hinted and then hit like any other PC, a
// duplicate of either is rejected on load, and a Save → Load → Save round
// trip is byte-identical.
func TestHintTable(t *testing.T) {
	h := NewHintDB("w", "s", "i")
	for _, pc := range []uint64{0, ^uint64(0)} {
		if _, ok := h.Lookup(pc); ok {
			t.Fatalf("empty db hits pc %#x", pc)
		}
	}
	for i := uint64(1); i <= 300; i++ {
		h.Set(i*4, i%3 == 0)
	}
	for _, pc := range []uint64{0, ^uint64(0)} {
		if _, ok := h.Lookup(pc); ok {
			t.Fatalf("unhinted pc %#x hits", pc)
		}
		h.Set(pc, true)
		h.Set(pc, false)
		if taken, ok := h.Lookup(pc); !ok || taken {
			t.Fatalf("pc %#x after Set(true), Set(false): %v %v", pc, taken, ok)
		}
	}
	h.Set(8, true)
	if taken, _ := h.Lookup(8); !taken || h.Len() != 302 {
		t.Fatalf("overwrite: taken=%v len=%d, want true, 302", taken, h.Len())
	}
	if hs := h.Hints(); hs[0].PC != 0 || hs[len(hs)-1].PC != ^uint64(0) {
		t.Fatalf("Hints() not sorted end to end: first %#x, last %#x", hs[0].PC, hs[len(hs)-1].PC)
	}

	var first, second bytes.Buffer
	if err := h.Save(&first); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHints(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save → Load → Save is not byte-identical")
	}
	for _, pc := range []string{"0", "18446744073709551615"} {
		dup := `{"version":1,"hints":[{"pc":` + pc + `,"taken":true},{"pc":4},{"pc":` + pc + `}]}`
		if _, err := LoadHints(strings.NewReader(dup)); err == nil {
			t.Errorf("duplicate hint for pc %s accepted", pc)
		}
	}
}
