package sim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
)

// batchSpecs are the nine devirtualized predictors — the seven table
// predictors plus tage and the perceptron — and one scalar-fallback
// scheme, so the differential also covers the Runner's generic block path.
// A "+hints" suffix wraps the predictor in a core.Combined with static
// hints on about half the stream's sites (see newBatchPredictor), under the
// shift policy named in parentheses, so the hinted kernel is covered too.
var batchSpecs = []string{
	"bimodal:1KB", "ghist:1KB", "gshare:1KB", "agree:1KB",
	"bimode:1KB", "gskew:1KB", "2bcgskew:1KB", "tage:1KB",
	"perceptron:1KB", "yags:1KB",
	"gshare:1KB+hints", "bimode:1KB+hints(shift)", "2bcgskew:1KB+hints(shiftstatic)",
	"tage:1KB+hints(shift)", "perceptron:1KB+hints", "yags:1KB+hints(shift)",
}

// pcSet is a trace.Recorder collecting the distinct branch PCs of a stream.
type pcSet map[uint64]bool

func (s pcSet) Branch(pc uint64, _ bool) { s[pc] = true }
func (s pcSet) Ops(uint64)               {}

// newBatchPredictor builds spec's predictor for a replay of data. A hinted
// spec hints each site of data whose hashed PC has its top bit set, with
// the next bit as the static direction.
func newBatchPredictor(t *testing.T, spec string, data []byte) predictor.Predictor {
	t.Helper()
	base, hinted, _ := strings.Cut(spec, "+")
	p, err := predictor.New(base)
	if err != nil {
		t.Fatalf("predictor %q: %v", spec, err)
	}
	if hinted == "" {
		return p
	}
	shift := map[string]core.ShiftPolicy{"hints": core.NoShift, "hints(shift)": core.ShiftOutcome, "hints(shiftstatic)": core.ShiftStatic}
	policy, ok := shift[hinted]
	if !ok {
		t.Fatalf("spec %q: unknown hint suffix", spec)
	}
	sites := pcSet{}
	trace.DecodeChunk(data, sites) // a corrupt tail only shortens the set
	hints := core.NewHintDB("fuzz", "test", "fuzz")
	for pc := range sites {
		if x := pc * 0x9e3779b97f4a7c15; x>>63 == 1 {
			hints.Set(pc, x>>62&1 == 1)
		}
	}
	return core.NewCombined(p, hints, policy)
}

// encodeStream builds one chunk from a deterministic pseudo-random event
// stream with a skewed PC distribution: a hot set, a warm tail, cold
// collision-prone strays, and interleaved straight-line runs.
func encodeStream(n int, seed uint64) []byte {
	var w trace.ChunkWriter
	s := seed
	pc := uint64(0x1_2000_0000)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		switch s % 7 {
		case 0:
			w.Ops(s >> 32 % 500)
		case 1, 2, 3:
			w.Branch(0x1_2000_0000+(s>>16%8)*4, s>>60%4 != 0)
		case 4, 5:
			pc += (s >> 24 % 128) * 4
			w.Branch(pc, s>>61%2 == 0)
		default:
			w.Branch(0x2_0000_0000+(s>>8%50_000)*4, s>>62%2 == 0)
		}
	}
	return w.Cut()
}

// runScalar replays data through a per-event Runner (the scalar protocol);
// runBatch replays the same bytes through the block decoder into the
// Runner's devirtualized kernel path. Both return the final metrics and the
// decode error.
func runScalar(t *testing.T, spec string, data []byte, track bool, db *profile.DB) (sim.Metrics, error) {
	t.Helper()
	return runPath(t, spec, data, track, db, func(r *sim.Runner) error {
		return trace.DecodeChunk(data, r)
	})
}

func runBatch(t *testing.T, spec string, data []byte, track bool, db *profile.DB, blockMax int) (sim.Metrics, error) {
	t.Helper()
	return runPath(t, spec, data, track, db, func(r *sim.Runner) error {
		buf := trace.BlockBuf{Max: blockMax}
		return trace.DecodeChunkBlocks(data, r, &buf)
	})
}

func runPath(t *testing.T, spec string, data []byte, track bool, db *profile.DB, feed func(*sim.Runner) error) (sim.Metrics, error) {
	t.Helper()
	p := newBatchPredictor(t, spec, data)
	opts := []sim.Option{sim.WithLabels("fuzz", "fuzz")}
	if track {
		opts = append(opts, sim.WithCollisions())
	}
	if db != nil {
		opts = append(opts, sim.WithProfile(db))
	}
	r := sim.NewRunner(p, opts...)
	err := feed(r)
	return r.Metrics(), err
}

// TestBatchVsScalarStreams is the deterministic core of the differential:
// for every predictor (the nine kernels plus a scalar-fallback scheme),
// with collision tracking on and off, and across block capacities that put
// boundaries at awkward offsets, the batched replay must produce
// bit-identical sim.Metrics — including the collision taxonomy — and a
// bit-identical per-branch profile.
func TestBatchVsScalarStreams(t *testing.T) {
	data := encodeStream(60_000, 31337)
	for _, spec := range batchSpecs {
		for _, track := range []bool{true, false} {
			dbWant := profile.NewDB("fuzz", "fuzz")
			want, errWant := runScalar(t, spec, data, track, dbWant)
			if errWant != nil {
				t.Fatalf("%s: scalar decode: %v", spec, errWant)
			}
			for _, blockMax := range []int{1, 5, 1000, 0} {
				dbGot := profile.NewDB("fuzz", "fuzz")
				got, err := runBatch(t, spec, data, track, dbGot, blockMax)
				if err != nil {
					t.Fatalf("%s: batch decode: %v", spec, err)
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s track=%v blockMax=%d: metrics diverge: %s", spec, track, blockMax, d)
				}
				if !reflect.DeepEqual(dbWant, dbGot) {
					t.Errorf("%s track=%v blockMax=%d: per-branch profiles diverge", spec, track, blockMax)
				}
			}
		}
	}
}

// FuzzBatchVsScalar feeds arbitrary chunk bytes — valid encodings, corrupt
// mutants, garbage — through both replay paths of a fuzz-chosen predictor
// and demands identical outcomes: the same decode error (or none) and
// bit-identical metrics for whatever prefix was delivered. blockMax fuzzes
// the block capacity so boundaries land at arbitrary offsets.
func FuzzBatchVsScalar(f *testing.F) {
	valid := encodeStream(2_000, 7)
	f.Add(valid, uint8(0), uint8(0))
	f.Add(valid, uint8(1), uint8(3))
	f.Add(valid, uint8(7), uint8(6))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0: 0}, uint8(3), uint8(2))                   // ops record missing count
	f.Add(bytes.Repeat([]byte{0x80}, 12), uint8(2), uint8(4)) // unterminated varint
	f.Add([]byte{1, 0x10, 0x02}, uint8(5), uint8(5))          // impossible outcome
	// Single-byte-corruption corpus over a small valid chunk, mirroring the
	// trace package's chunk fuzz seeds.
	small := encodeStream(40, 11)
	for i := 0; i < len(small); i++ {
		mutant := append([]byte(nil), small...)
		mutant[i] ^= 0x41
		f.Add(mutant, uint8(i), uint8(i))
	}

	f.Fuzz(func(t *testing.T, data []byte, blockMax, sel uint8) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		spec := batchSpecs[int(sel)%len(batchSpecs)]
		want, errWant := runScalar(t, spec, data, true, nil)
		got, errGot := runBatch(t, spec, data, true, nil, int(blockMax))
		if (errGot == nil) != (errWant == nil) ||
			(errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("%s: batch error %v, scalar error %v", spec, errGot, errWant)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("%s blockMax=%d: metrics diverge: %s", spec, blockMax, d)
		}
	})
}
