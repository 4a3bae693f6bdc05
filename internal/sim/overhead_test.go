package sim

import (
	"math"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/telemetry"
	"branchsim/internal/xrand"
)

// TestDisabledTelemetryOverheadGuard asserts the zero-cost-when-disabled
// contract: a Runner built with WithTelemetry(telemetry.New(zeroConfig, nil))
// — which yields a nil collector, the same state every telemetry-free caller
// gets — must not be measurably slower than one built without the option at
// all. The per-branch cost of disabled telemetry is a single nil check, so
// the ratio bound is generous only to absorb shared-CI timing noise.
func TestDisabledTelemetryOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}

	// A synthetic stream: 512 sites, mixed bias, fixed seed.
	const streamLen = 1 << 16
	rng := xrand.New(7)
	pcs := make([]uint64, streamLen)
	outs := make([]bool, streamLen)
	for i := range pcs {
		pcs[i] = 0x1_0000 + uint64(rng.Intn(512))*4
		outs[i] = rng.Bool(0.7)
	}

	drive := func(opts ...Option) func(b *testing.B) {
		return func(b *testing.B) {
			p, err := predictor.New("gshare:8KB")
			if err != nil {
				b.Fatal(err)
			}
			r := NewRunner(p, append([]Option{WithCollisions()}, opts...)...)
			for i := 0; i < b.N; i++ {
				k := i & (streamLen - 1)
				r.Branch(pcs[k], outs[k])
			}
			_ = r.Metrics()
		}
	}
	// Interleave the measurement rounds (base, disabled, base, disabled, …)
	// and take the best of each: a CPU-frequency shift or a noisy neighbor
	// on 1-CPU CI then biases both sides alike instead of whichever side
	// happened to run entirely inside the disturbance.
	baseFn := drive()
	disabledFn := drive(WithTelemetry(telemetry.New(telemetry.Config{}, nil)))
	base, disabled := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 3; round++ {
		if v := float64(testing.Benchmark(baseFn).NsPerOp()); v < base {
			base = v
		}
		if v := float64(testing.Benchmark(disabledFn).NsPerOp()); v < disabled {
			disabled = v
		}
	}

	if ratio := disabled / base; ratio > 1.30 {
		t.Errorf("disabled telemetry is %.2fx the untelemetered runner (%.1f vs %.1f ns/branch); want <= 1.30x",
			ratio, disabled, base)
	}
}

// probe is a counting predictor for the off-is-free checks: gshare's
// kernel underneath, with every hook a disabled consumer could reach
// counted — scalar Predict/Update calls, confidence queries, table
// snapshots, and blocks that arrive with per-event outputs armed.
type probe struct {
	*predictor.GShare
	scalar, grades, snapshots, blocks, armed int
}

func (p *probe) Predict(pc uint64) bool               { p.scalar++; return p.GShare.Predict(pc) }
func (p *probe) Update(pc uint64, taken bool)         { p.scalar++; p.GShare.Update(pc, taken) }
func (p *probe) LastConfidence() predictor.Confidence { p.grades++; return predictor.Confidence{} }
func (p *probe) Introspect() []predictor.TableStats {
	p.snapshots++
	return p.GShare.Introspect()
}
func (p *probe) RunBlock(pcs []uint64, taken []bool, out *predictor.BlockMetrics) {
	p.blocks++
	if out.Correct != nil || out.Collided != nil || out.Conf != nil {
		p.armed++
	}
	p.GShare.RunBlock(pcs, taken, out)
}

// probeBlocks is a fixed block stream: 512 sites, mixed bias, a
// straight-line run before every fourth branch.
func probeBlocks() (pcs []uint64, taken []bool, ops []uint64, opsSum uint64) {
	const n = 4096
	rng := xrand.New(11)
	pcs, taken, ops = make([]uint64, n), make([]bool, n), make([]uint64, n)
	for i := range pcs {
		pcs[i] = 0x1_0000 + uint64(rng.Intn(512))*4
		taken[i] = rng.Bool(0.7)
		if i%4 == 0 {
			ops[i] = uint64(rng.Intn(40))
			opsSum += ops[i]
		}
	}
	return pcs, taken, ops, opsSum
}

// TestDisabledPathsDoNoPerEventWork proves the off-is-free contract by
// counting instead of timing: with the nil collector a zero telemetry
// config yields, no profile and no observer, blocks reach the kernel with
// no per-event output armed, and nothing queries confidence, snapshots a
// table or falls back to the scalar protocol. With every sampler on, the
// same probe shows the block path still never goes per-event: grades come
// from the kernel's output, and tables are snapshotted once per seal.
func TestDisabledPathsDoNoPerEventWork(t *testing.T) {
	pcs, taken, ops, opsSum := probeBlocks()
	const blocks = 6

	p := &probe{GShare: predictor.NewGShare(8 << 10)}
	r := NewRunner(p, WithCollisions(), WithTelemetry(telemetry.New(telemetry.Config{}, nil)))
	if !r.BatchKernel() {
		t.Fatal("probe runs on the scalar wrapper")
	}
	for i := 0; i < blocks; i++ {
		r.RunBlockSummed(pcs, taken, ops, opsSum)
	}
	r.Metrics()
	if p.blocks != blocks || p.armed != 0 || p.scalar != 0 || p.grades != 0 || p.snapshots != 0 {
		t.Errorf("disabled paths: %d blocks, %d armed, %d scalar calls, %d grades, %d snapshots; want %d, 0, 0, 0, 0",
			p.blocks, p.armed, p.scalar, p.grades, p.snapshots, blocks)
	}

	p = &probe{GShare: predictor.NewGShare(8 << 10)}
	tel := telemetry.New(telemetry.Config{Interval: 10_000, TableStats: true, Confidence: true, TopK: 8}, nil)
	r = NewRunner(p, WithCollisions(), WithTelemetry(tel))
	for i := 0; i < blocks; i++ {
		r.RunBlockSummed(pcs, taken, ops, opsSum)
	}
	r.Metrics()
	recs := tel.Finish()
	if p.scalar != 0 || p.grades != 0 || p.snapshots != len(recs.TableStats) || p.armed != p.blocks {
		t.Errorf("enabled samplers: %d scalar calls, %d grades, %d snapshots for %d seals, %d of %d blocks armed",
			p.scalar, p.grades, p.snapshots, len(recs.TableStats), p.armed, p.blocks)
	}
	if p.blocks <= blocks {
		t.Errorf("table sampling ran %d kernel calls for %d blocks; seals should cut them", p.blocks, blocks)
	}
}

// TestRunBlockAllocatesNothing pins the other half of off-is-free: feeding
// a block to a runner with no collector, profile or tracer — bare, or
// publishing to an observer with tracing off — allocates nothing, for a
// table kernel and the tage kernel alike.
func TestRunBlockAllocatesNothing(t *testing.T) {
	pcs, taken, ops, opsSum := probeBlocks()
	for _, spec := range []string{"gshare:8KB", "tage:8KB", "perceptron:8KB"} {
		for _, o := range []*obs.Observer{nil, obs.New()} {
			p, err := predictor.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(p, WithCollisions(), WithObserver(o), WithTelemetry(telemetry.New(telemetry.Config{}, o)))
			if allocs := testing.AllocsPerRun(20, func() { r.RunBlockSummed(pcs, taken, ops, opsSum) }); allocs != 0 {
				t.Errorf("%s (observer %v): %.1f allocations per block, want 0", spec, o != nil, allocs)
			}
		}
	}
}
