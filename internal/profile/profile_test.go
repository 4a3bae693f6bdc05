package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"branchsim/internal/xrand"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRecordAndBias(t *testing.T) {
	db := NewDB("w", "train")
	for i := 0; i < 9; i++ {
		db.Record(0x10, true)
	}
	db.Record(0x10, false)
	b := db.Get(0x10)
	if b == nil {
		t.Fatal("branch not recorded")
	}
	if !almost(b.TakenBias(), 0.9) || !almost(b.Bias(), 0.9) {
		t.Fatalf("taken bias %v, bias %v", b.TakenBias(), b.Bias())
	}
	if !b.MajorityTaken() {
		t.Fatalf("majority direction wrong")
	}
}

func TestBiasOfNotTakenBranch(t *testing.T) {
	db := NewDB("w", "train")
	for i := 0; i < 4; i++ {
		db.Record(0x20, false)
	}
	db.Record(0x20, true)
	b := db.Get(0x20)
	if !almost(b.Bias(), 0.8) {
		t.Fatalf("bias = %v, want 0.8 (not-taken dominant)", b.Bias())
	}
	if b.MajorityTaken() {
		t.Fatalf("not-taken branch reported majority taken")
	}
}

func TestMajorityTieCountsTaken(t *testing.T) {
	db := NewDB("w", "t")
	db.Record(1, true)
	db.Record(1, false)
	if !db.Get(1).MajorityTaken() {
		t.Fatalf("tie should count as taken")
	}
}

func TestAccuracy(t *testing.T) {
	db := NewDB("w", "t")
	db.Predictor = "gshare:1KB"
	db.RecordPredicted(0x30, true, true)
	db.RecordPredicted(0x30, true, true)
	db.RecordPredicted(0x30, false, false)
	db.RecordPredicted(0x30, true, false)
	b := db.Get(0x30)
	if !almost(b.Accuracy(), 0.5) {
		t.Fatalf("accuracy = %v, want 0.5", b.Accuracy())
	}
}

func TestEmptyBranchStats(t *testing.T) {
	var b BranchStats
	if b.TakenBias() != 0 || b.Bias() != 0 || b.Accuracy() != 0 {
		t.Fatalf("zero-exec stats should report zeros")
	}
}

func TestDynamicBranchesAndLen(t *testing.T) {
	db := NewDB("w", "t")
	db.Record(1, true)
	db.Record(1, true)
	db.Record(2, false)
	if db.Len() != 2 || db.DynamicBranches() != 3 {
		t.Fatalf("len %d dyn %d", db.Len(), db.DynamicBranches())
	}
}

func TestBranchesSortedByPC(t *testing.T) {
	db := NewDB("w", "t")
	for _, pc := range []uint64{40, 4, 400, 44} {
		db.Record(pc, true)
	}
	bs := db.Branches()
	for i := 1; i < len(bs); i++ {
		if bs[i-1].PC >= bs[i].PC {
			t.Fatalf("branches not sorted: %v", bs)
		}
	}
}

func TestMergeSamePredictor(t *testing.T) {
	a := NewDB("w", "train")
	a.Predictor = "gshare:1KB"
	a.Instructions = 100
	a.RecordPredicted(1, true, true)
	b := NewDB("w", "ref")
	b.Predictor = "gshare:1KB"
	b.Instructions = 50
	b.RecordPredicted(1, false, false)
	b.RecordPredicted(2, true, true)

	a.Merge(b)
	if a.Instructions != 150 {
		t.Fatalf("instructions = %d", a.Instructions)
	}
	s := a.Get(1)
	if s.Exec != 2 || s.Taken != 1 || s.Correct != 1 {
		t.Fatalf("merged stats = %+v", s)
	}
	if a.Get(2) == nil {
		t.Fatalf("new branch not merged")
	}
	if a.Predictor != "gshare:1KB" {
		t.Fatalf("predictor annotation lost: %q", a.Predictor)
	}
	if !strings.Contains(a.Input, "train") || !strings.Contains(a.Input, "ref") {
		t.Fatalf("merged input label = %q", a.Input)
	}
}

func TestMergeDifferentPredictorsDropsAccuracy(t *testing.T) {
	a := NewDB("w", "t1")
	a.Predictor = "gshare:1KB"
	a.RecordPredicted(1, true, true)
	b := NewDB("w", "t2")
	b.Predictor = "bimodal:1KB"
	b.RecordPredicted(1, true, true)

	a.Merge(b)
	if a.Predictor != "" {
		t.Fatalf("mismatched predictors should clear the annotation")
	}
	if a.Get(1).Correct != 0 {
		t.Fatalf("accuracy counts survived a predictor mismatch")
	}
	if a.Get(1).Exec != 2 {
		t.Fatalf("bias counts must survive the merge: %+v", a.Get(1))
	}
}

func TestMergeNil(t *testing.T) {
	a := NewDB("w", "t")
	a.Record(1, true)
	a.Merge(nil)
	if a.Len() != 1 {
		t.Fatalf("merge(nil) changed the db")
	}
}

func TestRemoveUnstable(t *testing.T) {
	train := NewDB("w", "train")
	ref := NewDB("w", "ref")
	// stable branch: 90% taken in both
	for i := 0; i < 10; i++ {
		train.Record(1, i < 9)
		ref.Record(1, i < 9)
	}
	// drifting branch: 90% taken -> 20% taken
	for i := 0; i < 10; i++ {
		train.Record(2, i < 9)
		ref.Record(2, i < 2)
	}
	// train-only branch: untouched by the filter
	train.Record(3, true)

	removed := train.RemoveUnstable(ref, 0.05)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if train.Get(2) != nil {
		t.Fatalf("drifting branch survived")
	}
	if train.Get(1) == nil || train.Get(3) == nil {
		t.Fatalf("stable/unseen branches removed")
	}
}

func TestClone(t *testing.T) {
	a := NewDB("w", "t")
	a.Record(1, true)
	b := a.Clone()
	b.Record(1, false)
	b.Record(2, true)
	if a.Get(1).Exec != 1 || a.Get(2) != nil {
		t.Fatalf("clone aliases the original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	db := NewDB("w", "t")
	db.Record(1, true)
	db.Get(1).Taken = 5
	if err := db.Validate(); err == nil {
		t.Fatalf("taken > exec not caught")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB("gcc", "train")
	db.Predictor = "gshare:8KB"
	db.Instructions = 12345
	rng := xrand.New(1)
	for i := 0; i < 200; i++ {
		pc := uint64(0x1000 + i*4)
		for j := 0; j < rng.Intn(20)+1; j++ {
			db.RecordPredicted(pc, rng.Bool(0.7), rng.Bool(0.9))
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "gcc" || got.Input != "train" || got.Predictor != "gshare:8KB" || got.Instructions != 12345 {
		t.Fatalf("metadata lost: %+v", got)
	}
	if got.Len() != db.Len() {
		t.Fatalf("branch count %d, want %d", got.Len(), db.Len())
	}
	for _, b := range db.Branches() {
		g := got.Get(b.PC)
		if g == nil || *g != *b {
			t.Fatalf("branch %#x: %+v vs %+v", b.PC, g, b)
		}
	}
}

func TestSaveLoadProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		db := NewDB("w", "t")
		for i := 0; i < int(n); i++ {
			db.Record(rng.Uint64(), rng.Bool(0.5))
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		if got.Len() != db.Len() {
			return false
		}
		for _, b := range db.Branches() {
			g := got.Get(b.PC)
			if g == nil || *g != *b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"version":99,"workload":"w","input":"t"}`)); err == nil {
		t.Fatalf("bad version accepted")
	}
}

func TestLoadRejectsDuplicatePC(t *testing.T) {
	blob := `{"version":1,"workload":"w","input":"t","branches":[{"pc":4,"exec":1,"taken":1},{"pc":4,"exec":2,"taken":0}]}`
	if _, err := Load(strings.NewReader(blob)); err == nil {
		t.Fatalf("duplicate PC accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatalf("garbage accepted")
	}
}

func TestHighlyBiasedDynamicFraction(t *testing.T) {
	db := NewDB("w", "t")
	// branch A: 100 execs, 100% taken (biased)
	for i := 0; i < 100; i++ {
		db.Record(1, true)
	}
	// branch B: 100 execs, 50/50 (not biased)
	for i := 0; i < 100; i++ {
		db.Record(2, i%2 == 0)
	}
	if got := db.HighlyBiasedDynamicFraction(0.95); !almost(got, 0.5) {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
	if got := db.HighlyBiasedDynamicFraction(0.4); !almost(got, 1.0) {
		t.Fatalf("low cutoff fraction = %v, want 1.0", got)
	}
}

func TestDiverge(t *testing.T) {
	train := NewDB("w", "train")
	ref := NewDB("w", "ref")
	// branch 1: stable, seen in both (ref: 10 execs)
	for i := 0; i < 10; i++ {
		train.Record(1, true)
		ref.Record(1, true)
	}
	// branch 2: flips direction (ref: 10 execs)
	for i := 0; i < 10; i++ {
		train.Record(2, true)
		ref.Record(2, false)
	}
	// branch 3: ref-only (ref: 20 execs)
	for i := 0; i < 20; i++ {
		ref.Record(3, i%2 == 0)
	}

	d := Diverge(train, ref)
	if !almost(d.CoverageStatic, 2.0/3) {
		t.Fatalf("static coverage = %v", d.CoverageStatic)
	}
	if !almost(d.CoverageDynamic, 0.5) {
		t.Fatalf("dynamic coverage = %v", d.CoverageDynamic)
	}
	if !almost(d.FlipStatic, 1.0/3) || !almost(d.FlipDynamic, 0.25) {
		t.Fatalf("flips = %v / %v", d.FlipStatic, d.FlipDynamic)
	}
	if !almost(d.LargeDriftStatic, 1.0/3) {
		t.Fatalf("large drift = %v", d.LargeDriftStatic)
	}
	if !almost(d.SmallDriftStatic, 1.0/3) {
		t.Fatalf("small drift = %v", d.SmallDriftStatic)
	}
}

func TestDivergeEmpty(t *testing.T) {
	d := Diverge(NewDB("w", "a"), NewDB("w", "b"))
	if d.CoverageStatic != 0 || d.CoverageDynamic != 0 {
		t.Fatalf("empty divergence = %+v", d)
	}
}

func TestRecordDestructiveCollision(t *testing.T) {
	db := NewDB("w", "t")
	db.RecordPredicted(1, true, false)
	db.RecordDestructiveCollision(1)
	if db.Get(1).Dcol != 1 {
		t.Fatalf("dcol = %d", db.Get(1).Dcol)
	}
}

// TestProfileTable covers the record table at its edges: repeated records
// of a PC land on one stable *BranchStats however far the table grows; PC 0
// and 2^64−1 miss until recorded and then behave like any other PC through
// Remove, RemoveUnstable, Merge and Clone; a duplicate of either is
// rejected on load; and a Save → Load → Save round trip is byte-identical.
func TestProfileTable(t *testing.T) {
	const lo, hi = uint64(0), ^uint64(0)
	db := NewDB("w", "t")
	if db.Get(lo) != nil || db.Get(hi) != nil {
		t.Fatal("empty db hits an extreme pc")
	}
	db.Record(lo, true)
	db.Record(hi, false)
	first := db.Get(lo)
	for i := uint64(1); i <= 5000; i++ {
		db.Record(i*4, i%2 == 0)
	}
	db.Record(lo, false)
	if db.Get(lo) != first || first.Exec != 2 || first.Taken != 1 {
		t.Fatalf("pc 0's record moved or lost counts: %+v", db.Get(lo))
	}
	if got := db.Get(hi); got == nil || got.PC != hi || got.Exec != 1 || db.Len() != 5002 {
		t.Fatalf("pc 2^64-1 = %+v, len %d", got, db.Len())
	}

	c := db.Clone()
	c.Record(hi, true)
	c.Remove(lo)
	c.Remove(lo)
	if c.Get(lo) != nil || c.Len() != 5001 || db.Get(lo) == nil || db.Get(hi).Exec != 1 {
		t.Fatal("Clone/Remove of an extreme pc leaks between the copies")
	}

	other := NewDB("w", "ref")
	other.Record(hi, true) // drifts from db's 0% taken
	other.Record(lo, false)
	other.Record(lo, true) // 50% taken, as in db
	if n := db.Clone().RemoveUnstable(other, 0.05); n != 1 {
		t.Fatalf("RemoveUnstable removed %d, want pc 2^64-1 alone", n)
	}
	m := NewDB("w", "t")
	m.Merge(db)
	m.Merge(other)
	if m.Get(lo).Exec != 4 || m.Get(hi).Exec != 2 || m.Len() != db.Len() {
		t.Fatalf("merge: pc 0 %+v, pc 2^64-1 %+v, len %d", m.Get(lo), m.Get(hi), m.Len())
	}

	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save → Load → Save is not byte-identical")
	}
	for _, pc := range []string{"0", "18446744073709551615"} {
		blob := `{"version":1,"workload":"w","input":"t","branches":[{"pc":` + pc + `,"exec":1},{"pc":4,"exec":1},{"pc":` + pc + `,"exec":2}]}`
		if _, err := Load(strings.NewReader(blob)); err == nil {
			t.Errorf("duplicate record for pc %s accepted", pc)
		}
	}
}
