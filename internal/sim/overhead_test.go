package sim

import (
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/telemetry"
	"branchsim/internal/xrand"
)

// TestDisabledTelemetryOverheadGuard asserts the zero-cost-when-disabled
// contract by counting instead of timing: a zero telemetry.Config yields a
// nil collector — the state every telemetry-free caller gets — and a Runner
// built with WithTelemetry of it does exactly the per-event work of one
// built without the option, on the per-event and the block path alike:
// the same scalar calls, confidence queries, table snapshots and kernel
// blocks, and equal metrics. The wall-clock ratio this guard used to time
// is reported by the benchmark harness as telemetry.off_ratio.
func TestDisabledTelemetryOverheadGuard(t *testing.T) {
	tel := telemetry.New(telemetry.Config{}, nil)
	if tel != nil {
		t.Fatal("zero telemetry config built a collector")
	}
	pcs, taken, ops, opsSum := probeBlocks()
	run := func(opts ...Option) (*probe, Metrics) {
		p := &probe{GShare: predictor.NewGShare(8 << 10)}
		r := NewRunner(p, append([]Option{WithCollisions()}, opts...)...)
		for i, pc := range pcs {
			r.Ops(ops[i])
			r.Branch(pc, taken[i])
		}
		for i := 0; i < 3; i++ {
			r.RunBlockSummed(pcs, taken, ops, opsSum)
		}
		return p, r.Metrics()
	}
	base, baseM := run()
	disabled, disabledM := run(WithTelemetry(tel))
	if base.counts() != disabled.counts() {
		t.Errorf("disabled telemetry changed the per-event work: %v, untelemetered %v", disabled.counts(), base.counts())
	}
	if d := baseM.Diff(disabledM); d != "" {
		t.Errorf("disabled telemetry changed the metrics: %s", d)
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

// counts returns the probe's tallies: scalar calls, grades, snapshots,
// blocks and armed blocks.
func (p *probe) counts() [5]int { return [5]int{p.scalar, p.grades, p.snapshots, p.blocks, p.armed} }

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
