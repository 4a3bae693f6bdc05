package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
)

// telemetryStream is encodeStream's event mix plus occasional long
// straight-line runs, several of which cross more than one short interval
// at once.
func telemetryStream(n int, seed uint64) []byte {
	var w trace.ChunkWriter
	s := seed
	pc := uint64(0x1_2000_0000)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		switch s % 8 {
		case 0:
			w.Ops(s >> 32 % 500)
		case 1:
			if s>>40%8 == 0 {
				w.Ops(900 + s>>20%3000)
			}
			w.Branch(0x1_2000_0000+(s>>16%8)*4, s>>60%4 != 0)
		case 2, 3:
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

func mustNew(t *testing.T, spec string) predictor.Predictor {
	t.Helper()
	p, err := predictor.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// telemetryRun feeds one runner with a full telemetry collector and a
// profile, returning the collector's records as JSON and the profile.
func telemetryRun(t *testing.T, spec string, track bool, cfg telemetry.Config, feed func(*sim.Runner) error) ([]byte, *profile.DB) {
	t.Helper()
	p := mustNew(t, spec)
	tel := telemetry.New(cfg, nil)
	db := profile.NewDB("tel", "tel")
	opts := []sim.Option{sim.WithLabels("tel", "tel"), sim.WithTelemetry(tel), sim.WithProfile(db)}
	if track {
		opts = append(opts, sim.WithCollisions())
	}
	r := sim.NewRunner(p, opts...)
	if err := feed(r); err != nil {
		t.Fatal(err)
	}
	r.Metrics()
	recs := tel.Finish()
	js, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return js, db
}

// TestTelemetryThroughBlocksMatchesPerEvent is the differential for the
// block path with every sampler live: table stats (which cut blocks at
// interval seals), confidence grading (read from the kernel's per-event
// output) and the top-K site tracker. A short odd interval makes seals land
// mid-block, right after branches and inside long straight-line runs; the
// records must be byte-identical to per-event feeding at every block size.
func TestTelemetryThroughBlocksMatchesPerEvent(t *testing.T) {
	data := telemetryStream(30_000, 4711)
	cfg := telemetry.Config{Interval: 997, TableStats: true, Confidence: true, TopK: 8}
	for _, spec := range []string{"gshare:1KB", "2bcgskew:1KB", "tage:1KB", "perceptron:1KB"} {
		for _, track := range []bool{true, false} {
			name := fmt.Sprintf("%s/track=%v", spec, track)
			want, wantDB := telemetryRun(t, spec, track, cfg, func(r *sim.Runner) error {
				return trace.DecodeChunk(data, r)
			})
			var recs telemetry.Records
			if err := json.Unmarshal(want, &recs); err != nil {
				t.Fatal(err)
			}
			_, grades := predictor.ConfidenceEstimatorOf(mustNew(t, spec))
			if len(recs.Intervals) < 100 || len(recs.TableStats) == 0 || recs.TopK == nil ||
				grades != (len(recs.Confidence) > 0) {
				t.Fatalf("%s: degenerate golden: %d intervals, %d table and %d confidence samples",
					name, len(recs.Intervals), len(recs.TableStats), len(recs.Confidence))
			}
			for _, blockMax := range []int{1, 5, 1000, 0} {
				got, gotDB := telemetryRun(t, spec, track, cfg, func(r *sim.Runner) error {
					buf := trace.BlockBuf{Max: blockMax}
					return trace.DecodeChunkBlocks(data, r, &buf)
				})
				if !bytes.Equal(got, want) {
					t.Errorf("%s blockMax=%d: telemetry records differ from per-event feeding", name, blockMax)
				}
				if !reflect.DeepEqual(gotDB, wantDB) {
					t.Errorf("%s blockMax=%d: per-branch profiles differ from per-event feeding", name, blockMax)
				}
			}
		}
	}
}
