package workload

import (
	"context"
	"testing"

	"branchsim/internal/profile"
	"branchsim/internal/trace"
	"branchsim/internal/xrand"
)

// streamHash fingerprints a branch stream.
type streamHash struct {
	h uint64
	n uint64
}

func (s *streamHash) Branch(pc uint64, taken bool) {
	v := pc<<1 | 1
	if taken {
		v |= 2
	}
	s.h = xrand.Hash64(s.h ^ v)
	s.n++
}

func (s *streamHash) Ops(n uint64) { s.h = xrand.Hash64(s.h ^ (n << 1)) }

func TestRegistryHasTheSuite(t *testing.T) {
	names := Names()
	want := map[string]bool{"go": true, "gcc": true, "perl": true, "m88ksim": true, "compress": true, "ijpeg": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing programs: %v (have %v)", want, names)
	}
	if len(Suite()) != 6 {
		t.Fatalf("Suite() returned %d programs", len(Suite()))
	}
	// Suite must be in the paper's Table 1 order
	order := []string{"go", "gcc", "perl", "m88ksim", "compress", "ijpeg"}
	for i, p := range Suite() {
		if p.Name() != order[i] {
			t.Fatalf("suite order %v", Suite())
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatalf("unknown workload accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	Register(compressProg{})
}

func TestProgramsDeterministic(t *testing.T) {
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, input := range []string{InputTest, InputTrain} {
			a, b := &streamHash{}, &streamHash{}
			if err := p.Run(context.Background(), input, a); err != nil {
				t.Fatalf("%s/%s: %v", name, input, err)
			}
			if err := p.Run(context.Background(), input, b); err != nil {
				t.Fatalf("%s/%s: %v", name, input, err)
			}
			if a.h != b.h || a.n != b.n {
				t.Errorf("%s/%s: stream not deterministic (%#x over %d events vs %#x over %d)", name, input, a.h, a.n, b.h, b.n)
			}
		}
	}
}

func TestProgramsRejectUnknownInput(t *testing.T) {
	for _, p := range Suite() {
		if err := p.Run(context.Background(), "bogus", trace.Discard); err == nil {
			t.Errorf("%s accepted a bogus input", p.Name())
		}
	}
}

func TestInputsDiffer(t *testing.T) {
	// test and train inputs must produce different streams (different
	// seeds/sizes), otherwise cross-training experiments are vacuous
	for _, p := range Suite() {
		a, b := &streamHash{}, &streamHash{}
		if err := p.Run(context.Background(), InputTest, a); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background(), InputTrain, b); err != nil {
			t.Fatal(err)
		}
		if a.h == b.h {
			t.Errorf("%s: test and train streams identical", p.Name())
		}
	}
}

func profileOf(t *testing.T, name, input string) *profile.DB {
	t.Helper()
	p, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	db := profile.NewDB(name, input)
	rec := recorderFunc{db}
	if err := p.Run(context.Background(), input, rec); err != nil {
		t.Fatal(err)
	}
	return db
}

type recorderFunc struct{ db *profile.DB }

func (r recorderFunc) Branch(pc uint64, taken bool) { r.db.Record(pc, taken) }
func (r recorderFunc) Ops(uint64)                   {}

func TestBiasOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("bias ordering needs the train inputs")
	}
	frac := map[string]float64{}
	for _, p := range Suite() { // paper programs only; synth is out of scope
		db := profileOf(t, p.Name(), InputTrain)
		frac[p.Name()] = db.HighlyBiasedDynamicFraction(0.95)
	}
	// The paper's Table 2 ordering endpoints: go must be the least biased
	// program, m88ksim the most.
	for name, f := range frac {
		if name != "go" && f <= frac["go"] {
			t.Errorf("go (%.2f) not the least biased: %s = %.2f", frac["go"], name, f)
		}
		if name != "m88ksim" && f >= frac["m88ksim"] {
			t.Errorf("m88ksim (%.2f) not the most biased: %s = %.2f", frac["m88ksim"], name, f)
		}
	}
}

func TestBranchDensityInPaperRange(t *testing.T) {
	if testing.Short() {
		t.Skip("density check needs the train inputs")
	}
	for _, p := range Suite() {
		var c trace.Counts
		if err := p.Run(context.Background(), InputTrain, &c); err != nil {
			t.Fatal(err)
		}
		cbr := c.CBRsPerKI()
		lo, hi := 90.0, 180.0
		if p.Name() == "ijpeg" {
			lo, hi = 40, 80 // the paper's ijpeg is roughly half as branchy
		}
		if cbr < lo || cbr > hi {
			t.Errorf("%s: %.1f CBRs/KI outside [%v, %v]", p.Name(), cbr, lo, hi)
		}
	}
}

func TestTrainCoversMostRefBranches(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage check runs the ref inputs")
	}
	for _, name := range Names() {
		if name == "synth" {
			continue // synthetic sites trivially overlap
		}
		train := profileOf(t, name, InputTrain)
		ref := profileOf(t, name, InputRef)
		d := profile.Diverge(train, ref)
		if d.CoverageDynamic < 0.5 {
			t.Errorf("%s: train covers only %.1f%% of ref's dynamic branches", name, 100*d.CoverageDynamic)
		}
	}
}

func TestStaticSiteCountsStable(t *testing.T) {
	// The number of static sites seen on the test input is a structural
	// property; pin it so accidental site churn is visible in review.
	for _, name := range Names() {
		db := profileOf(t, name, InputTest)
		if db.Len() < 8 {
			t.Errorf("%s: only %d static branches on the test input", name, db.Len())
		}
	}
}

func TestGenTextDeterministicAndClassed(t *testing.T) {
	a := genText(5, 1000, false)
	b := genText(5, 1000, false)
	if string(a) != string(b) {
		t.Fatalf("genText not deterministic")
	}
	if len(a) != 1000 {
		t.Fatalf("length %d", len(a))
	}
	for _, ch := range a {
		if !(ch >= 'a' && ch <= 'z' || ch == ' ') {
			t.Fatalf("plain text contains %q", ch)
		}
	}
	rich := genText(5, 5000, true)
	hasUpper, hasDigit := false, false
	for _, ch := range rich {
		if ch >= 'A' && ch <= 'Z' {
			hasUpper = true
		}
		if ch >= '0' && ch <= '9' {
			hasDigit = true
		}
	}
	if !hasUpper || !hasDigit {
		t.Fatalf("rich text missing classes (upper=%v digit=%v)", hasUpper, hasDigit)
	}
}
