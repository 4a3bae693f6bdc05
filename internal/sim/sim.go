// Package sim drives a predictor over a dynamic branch stream and
// accumulates the paper's metrics: mispredictions per thousand instructions
// (MISPs/KI), prediction accuracy, and collision counts split into
// constructive and destructive.
//
// The Runner is a trace.Recorder, so anything that produces a branch stream
// — an instrumented workload, a trace file replay, a synthetic generator —
// can feed it directly, with no intermediate buffering.
package sim

import (
	"context"
	"fmt"
	"strings"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
)

// Collisions counts predictor-table aliasing events, classified the way the
// paper does: a collision is a lookup whose counter was last used by a
// different branch; it is constructive when the final prediction was
// nevertheless correct, destructive when it was wrong.
type Collisions struct {
	Total        uint64
	Constructive uint64
	Destructive  uint64
}

// Metrics is the result of one simulation run.
type Metrics struct {
	Predictor string
	Workload  string
	Input     string

	trace.Counts
	Mispredicts uint64

	// Collisions is populated only when the predictor supports tracking
	// and the Runner was built with WithCollisions.
	Collisions        Collisions
	CollisionsTracked bool
}

// MISPKI returns mispredictions per thousand instructions, the paper's
// primary metric (it argues MISPs/KI beats raw accuracy because it weights
// programs by branch density).
func (m *Metrics) MISPKI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.Mispredicts) / float64(m.Instructions)
}

// Accuracy returns the fraction of branches predicted correctly.
func (m *Metrics) Accuracy() float64 {
	if m.Branches == 0 {
		return 0
	}
	return 1 - float64(m.Mispredicts)/float64(m.Branches)
}

// Diff describes every field in which o differs from m, one "field: got …,
// want …" clause per difference, or "" when the metrics are identical. It
// exists for equivalence tests, where a bare != on the struct says nothing
// about which of the counters diverged.
func (m Metrics) Diff(o Metrics) string {
	var parts []string
	add := func(field string, got, want any) {
		if got != want {
			parts = append(parts, fmt.Sprintf("%s: got %v, want %v", field, got, want))
		}
	}
	add("predictor", o.Predictor, m.Predictor)
	add("workload", o.Workload, m.Workload)
	add("input", o.Input, m.Input)
	add("instructions", o.Instructions, m.Instructions)
	add("branches", o.Branches, m.Branches)
	add("taken", o.TakenCount, m.TakenCount)
	add("mispredicts", o.Mispredicts, m.Mispredicts)
	add("collisionsTracked", o.CollisionsTracked, m.CollisionsTracked)
	add("collisions.total", o.Collisions.Total, m.Collisions.Total)
	add("collisions.constructive", o.Collisions.Constructive, m.Collisions.Constructive)
	add("collisions.destructive", o.Collisions.Destructive, m.Collisions.Destructive)
	return strings.Join(parts, "; ")
}

// String summarizes the run.
func (m *Metrics) String() string {
	s := fmt.Sprintf("%s on %s/%s: %.3f MISP/KI (acc %.2f%%, %d br, %d instr)",
		m.Predictor, m.Workload, m.Input, m.MISPKI(), 100*m.Accuracy(), m.Branches, m.Instructions)
	if m.CollisionsTracked {
		s += fmt.Sprintf(", collisions %d (%d constructive, %d destructive)",
			m.Collisions.Total, m.Collisions.Constructive, m.Collisions.Destructive)
	}
	return s
}

// Runner feeds a predictor from a branch stream. It implements
// trace.Recorder.
type Runner struct {
	p       predictor.Predictor
	col     predictor.Collider
	prof    *profile.DB
	ctx     context.Context
	events  uint64
	metrics Metrics

	// Observability (nil when disabled). Updates are batched: the event
	// loop accumulates into the local counters above and flushes deltas at
	// the cancelEvery cadence, so an attached observer costs two atomic
	// adds per 16k branches and a detached one costs nothing.
	obsEvents   *obs.Counter
	obsMisp     *obs.Counter
	flushedEv   uint64
	flushedMisp uint64

	// tel is the simulation-domain telemetry collector (nil when disabled:
	// one nil check per branch). Bound to this runner's labels and predictor
	// by NewRunner; finished — final interval sealed, records journaled — by
	// the first Metrics call.
	tel *telemetry.Collector

	// ce grades predictions for the profile database (nil unless profiling
	// a predictor that implements ConfidenceEstimator): low-confidence
	// executions per branch feed the confidence-based static filter.
	ce predictor.ConfidenceEstimator

	// kern runs RunBlock's blocks: the predictor's native kernel when it
	// has one (native), else the generic wrapper looping Predict/Update.
	// bm is the block's scratch output, kept here so feeding a block
	// allocates nothing; the scratch slices back its per-event outputs
	// when telemetry or profiling needs them, scratchConf only when a
	// consumer grades predictions (grade).
	kern            predictor.BatchSim
	native          bool
	grade           bool
	bm              predictor.BlockMetrics
	scratchCorrect  []bool
	scratchCollided []bool
	scratchConf     []predictor.Confidence
}

// cancelEvery is the branch cadence of the Runner's own context check, used
// when the stream producer (a trace replay, a custom generator) has no
// instrumentation context of its own.
const cancelEvery = 16384

// Option configures a Runner.
type Option func(*Runner)

// WithCollisions enables collision tracking when the predictor supports it.
func WithCollisions() Option {
	return func(r *Runner) {
		if c, ok := r.p.(predictor.Collider); ok {
			c.EnableCollisionTracking()
			r.col = c
			r.metrics.CollisionsTracked = true
		}
	}
}

// WithProfile collects per-branch statistics into db during the run — the
// paper's phase-1 profiling. Per-branch accuracy (and destructive-collision
// counts, if tracking is on) refer to the Runner's predictor, so db.Predictor
// is set to its name.
func WithProfile(db *profile.DB) Option {
	return func(r *Runner) {
		r.prof = db
		db.Predictor = r.p.Name()
	}
}

// WithContext arms cooperative cancellation inside the Runner's event loop:
// once ctx is done, the next periodic check unwinds the stream with a
// trace.Stop panic, which the run wrappers (workload.RunProgram,
// trace.Reader.Replay) recover and return as ctx's error. Use it when the
// producer feeding the Runner does not check a context itself.
func WithContext(ctx context.Context) Option {
	return func(r *Runner) {
		if ctx != nil && ctx.Done() != nil {
			r.ctx = ctx
		}
	}
}

// WithObserver publishes the runner's throughput to o's registry: dynamic
// branch events under obs.MSimEvents and mispredictions under
// obs.MSimMispredicts. Counts flow in batched deltas (every cancelEvery
// events and at Metrics time), so live readers — the progress reporter, the
// /debug/vars endpoint — see events/sec without the per-branch path ever
// touching an atomic. A nil observer leaves the runner unobserved.
func WithObserver(o *obs.Observer) Option {
	return func(r *Runner) {
		if o != nil {
			r.obsEvents = o.Counter(obs.MSimEvents)
			r.obsMisp = o.Counter(obs.MSimMispredicts)
		}
	}
}

// WithTelemetry attaches a simulation-domain telemetry collector: interval
// time-series, predictor-table samples and per-branch statistics, per
// telemetry.Config. The collector must be fresh (one collector per runner);
// NewRunner binds it to the runner's labels and predictor, and the runner's
// first Metrics call finishes it, flushing its records to the observer it
// was built with. A nil collector — what telemetry.New returns for a
// disabled config — leaves the runner untelemetered.
func WithTelemetry(tel *telemetry.Collector) Option {
	return func(r *Runner) { r.tel = tel }
}

// WithLabels sets the workload/input labels recorded in the metrics.
func WithLabels(workload, input string) Option {
	return func(r *Runner) {
		r.metrics.Workload = workload
		r.metrics.Input = input
	}
}

// NewRunner builds a Runner around p.
func NewRunner(p predictor.Predictor, opts ...Option) *Runner {
	r := &Runner{p: p}
	r.metrics.Predictor = p.Name()
	for _, o := range opts {
		o(r)
	}
	// Bind after the option loop so the collector sees the final labels and
	// the collision-tracking decision, whatever order the options came in.
	r.tel.Bind(p, r.metrics.Workload, r.metrics.Input, r.metrics.Predictor, r.metrics.CollisionsTracked)
	if r.prof != nil {
		if ce, ok := predictor.ConfidenceEstimatorOf(p); ok {
			r.ce = ce
		}
	}
	r.kern, r.native = predictor.Batch(p)
	r.grade = r.ce != nil || r.tel.ConfidenceSampling()
	return r
}

// BatchKernel reports whether the runner's predictor has a native batch
// kernel, i.e. whether RunBlock runs devirtualized. Replay engines use it to
// decide if a capturing arm is worth feeding through the block decoder.
func (r *Runner) BatchKernel() bool { return r.native }

// Branch implements trace.Recorder: predict, score, classify, train.
func (r *Runner) Branch(pc uint64, taken bool) {
	pred := r.p.Predict(pc)
	correct := pred == taken
	if !correct {
		r.metrics.Mispredicts++
	}
	collided := r.col != nil && r.col.LastCollision()
	destructive := false
	if collided {
		r.metrics.Collisions.Total++
		if correct {
			r.metrics.Collisions.Constructive++
		} else {
			r.metrics.Collisions.Destructive++
			destructive = true
		}
	}
	if r.prof != nil {
		r.prof.RecordPredicted(pc, taken, correct)
		if destructive {
			r.prof.RecordDestructiveCollision(pc)
		}
		if r.ce != nil && r.ce.LastConfidence().Low {
			r.prof.RecordLowConfidence(pc)
		}
	}
	r.p.Update(pc, taken)
	r.metrics.Counts.Branch(pc, taken)
	if r.tel != nil {
		// After Update, so an interval boundary here introspects tables that
		// already absorbed this branch's training.
		r.tel.Branch(pc, taken, correct, collided)
	}
	if r.events++; r.events%cancelEvery == 0 {
		if r.obsEvents != nil {
			r.flushObs()
		}
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				panic(trace.Stop{Err: err})
			}
		}
	}
}

// RunBlock implements trace.BlockSink: the batched equivalent of calling
// Ops(ops[i]) then Branch(pcs[i], taken[i]) per event. The whole block runs
// through the predictor's kernel and the metrics fold in wholesale;
// per-event consumers (profile, telemetry) are then fed from the kernel's
// per-event outputs, in order: correctness, collision and, when a consumer
// grades predictions, the confidence grade of each event. Telemetry that
// samples predictor tables cuts the block where the collector seals
// (Collector.Span), so a snapshot observes exactly the events before it —
// including a seal that lands inside the straight-line run before a branch.
// Every path is bit-identical to the per-event loop.
func (r *Runner) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	var opsSum uint64
	for _, o := range ops[:len(pcs)] {
		opsSum += o
	}
	r.RunBlockSummed(pcs, taken, ops, opsSum)
}

// RunBlockSummed implements trace.SummedBlockSink: RunBlock for feeders that
// already hold the block's straight-line instruction total (the engine's
// decoded-block cache computes it once at capture), sparing the per-block
// summing pass.
func (r *Runner) RunBlockSummed(pcs []uint64, taken []bool, ops []uint64, opsSum uint64) {
	n := len(pcs)
	if n == 0 {
		return
	}
	bm := &r.bm
	*bm = predictor.BlockMetrics{}
	if r.tel != nil || r.prof != nil {
		if cap(r.scratchCorrect) < n {
			r.scratchCorrect = make([]bool, n)
			r.scratchCollided = make([]bool, n)
			if r.grade {
				r.scratchConf = make([]predictor.Confidence, n)
			}
		}
		bm.Correct = r.scratchCorrect[:n]
		bm.Collided = r.scratchCollided[:n]
		if r.grade {
			bm.Conf = r.scratchConf[:n]
		}
	}
	if r.tel == nil {
		r.kern.RunBlock(pcs, taken, bm)
	} else {
		r.runSpans(pcs, taken, ops)
	}

	r.metrics.Mispredicts += bm.Mispredicts
	// The kernel reports raw tag collisions; they count only when this
	// runner tracks collisions, mirroring the scalar gate on r.col.
	tracked := r.col != nil
	if tracked {
		r.metrics.Collisions.Total += bm.Collisions
		r.metrics.Collisions.Constructive += bm.Constructive
		r.metrics.Collisions.Destructive += bm.Destructive
	}
	r.metrics.Instructions += opsSum + uint64(n)
	r.metrics.Branches += uint64(n)
	r.metrics.TakenCount += bm.TakenCount

	if r.prof != nil {
		for i, pc := range pcs {
			correct := bm.Correct[i]
			r.prof.RecordPredicted(pc, taken[i], correct)
			if tracked && !correct && bm.Collided[i] {
				r.prof.RecordDestructiveCollision(pc)
			}
			if r.ce != nil && bm.Conf[i].Low {
				r.prof.RecordLowConfidence(pc)
			}
		}
	}

	// Preserve the observer-flush and cancellation cadence at block
	// granularity: fire once whenever the block crossed a cancelEvery
	// multiple, as the per-event loop would have.
	before := r.events
	r.events += uint64(n)
	if before/cancelEvery != r.events/cancelEvery {
		if r.obsEvents != nil {
			r.flushObs()
		}
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				panic(trace.Stop{Err: err})
			}
		}
	}
}

// runSpans runs a block through the kernel span by span, feeding the
// collector each span as soon as the kernel has scored it. The leading
// straight-line run is charged before anything runs, and every later run is
// charged with the branch before it, so a span ends at the branch after
// which the collector next seals: on the branch itself or within the run
// that follows it. r.bm's per-event slices cover the whole block on entry
// and exit; its counters accumulate across the spans.
func (r *Runner) runSpans(pcs []uint64, taken []bool, ops []uint64) {
	bm := &r.bm
	n := len(pcs)
	correct, collided, conf := bm.Correct, bm.Collided, bm.Conf
	if ops[0] != 0 {
		r.tel.Ops(ops[0])
	}
	for lo := 0; lo < n; {
		hi := lo + r.tel.Span(n-lo, ops[lo+1:n])
		bm.Correct, bm.Collided = correct[lo:hi], collided[lo:hi]
		if conf != nil {
			bm.Conf = conf[lo:hi]
		}
		r.kern.RunBlock(pcs[lo:hi], taken[lo:hi], bm)
		r.tel.Block(pcs[lo:hi], taken[lo:hi], ops[lo+1:min(hi+1, n)], bm)
		lo = hi
	}
	bm.Correct, bm.Collided, bm.Conf = correct, collided, conf
}

// flushObs publishes the event/mispredict deltas accumulated since the last
// flush. Delta-based, so it is safe to call at any cadence and again from
// Metrics.
func (r *Runner) flushObs() {
	r.obsEvents.Add(r.events - r.flushedEv)
	r.obsMisp.Add(r.metrics.Mispredicts - r.flushedMisp)
	r.flushedEv, r.flushedMisp = r.events, r.metrics.Mispredicts
}

// Ops implements trace.Recorder.
func (r *Runner) Ops(n uint64) {
	r.metrics.Counts.Ops(n)
	if r.tel != nil {
		r.tel.Ops(n)
	}
}

// Metrics returns a snapshot of the accumulated results. When profiling is
// enabled it also stamps the profile database with the instruction total.
func (r *Runner) Metrics() Metrics {
	if r.prof != nil {
		r.prof.Instructions = r.metrics.Instructions
	}
	if r.obsEvents != nil {
		r.flushObs()
	}
	// Finish telemetry: seal the final partial interval and journal the
	// buffered records. Idempotent, so repeated Metrics calls are fine.
	r.tel.Finish()
	return r.metrics
}

// Predictor returns the predictor under test.
func (r *Runner) Predictor() predictor.Predictor { return r.p }
