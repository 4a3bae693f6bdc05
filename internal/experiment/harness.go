// Package experiment defines one runnable experiment per table and figure of
// the paper, plus ablations, all sharing a caching harness so that repeated
// arms (baseline runs, phase-1 profiles, hint sets) are computed once.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"branchsim/internal/core"
	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/replay"
	"branchsim/internal/report"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// Suite is the paper's benchmark order (Table 1).
var Suite = []string{"go", "gcc", "perl", "m88ksim", "compress", "ijpeg"}

// FivePredictors are the paper's evaluated schemes, in Table 2 order.
var FivePredictors = []string{"bimodal", "ghist", "gshare", "bimode", "2bcgskew"}

// Harness runs simulations for experiments, memoizing profiles, hint sets
// and runs. It is safe for concurrent use: concurrent requests for the same
// arm share one simulation (singleflight), so experiments can run in
// parallel over one harness without duplicating the shared baselines.
//
// The harness is also the resilience boundary of a sweep. Every arm runs
// under the caller's context (plus an optional per-arm deadline), a
// panicking predictor or workload fails only its own arm (surfaced as an
// *ArmError), transient failures are retried with backoff, and — with a
// Checkpoint attached — completed work is journaled to disk so a killed
// sweep resumes where it stopped.
type Harness struct {
	// RefInput is the measurement input (paper: "ref").
	RefInput string
	// TrainInput is the profiling input for cross-training experiments
	// (paper: "train").
	TrainInput string
	// Log, when non-nil, receives one line per uncached simulation.
	//
	// Deprecated: pass WithLogger to NewHarness.
	Log io.Writer
	// ArmTimeout, when positive, bounds each uncached simulation
	// (profile or measurement run) with its own deadline.
	//
	// Deprecated: pass WithArmTimeout to NewHarness.
	ArmTimeout time.Duration
	// Retry bounds in-place re-attempts of transient arm failures.
	//
	// Deprecated: pass WithRetry to NewHarness.
	Retry RetryPolicy
	// Checkpoint, when non-nil, journals completed profiles and run
	// metrics and consults the journal before simulating.
	//
	// Deprecated: pass WithCheckpoint to NewHarness.
	Checkpoint *Checkpoint
	// Lookup resolves workload names; nil means workload.Get. Tests
	// substitute fault-injecting programs here.
	//
	// Deprecated: pass WithLookup to NewHarness.
	Lookup func(name string) (workload.Program, error)
	// NewPredictor builds predictors from specs; nil means predictor.New.
	// Tests substitute fault-injecting predictors here.
	//
	// Deprecated: pass WithPredictorFactory to NewHarness.
	NewPredictor func(spec string) (predictor.Predictor, error)
	// Replay, when non-nil, shares one instrumented execution per
	// (workload, input) across uncached arms: the first arm to need a
	// stream captures it while simulating, concurrent arms replay the
	// capture instead of re-running the workload. Metrics are
	// bit-identical to direct execution, and singleflight and checkpoint
	// keys are unchanged, so attaching an engine never changes results —
	// only how often workloads execute.
	//
	// Deprecated: pass WithReplay (or WithWorkers) to NewHarness.
	Replay *replay.Engine
	// Obs is the observability layer: when non-nil, every arm gets a
	// lifecycle span (phase timings, retries, cache-hit provenance, final
	// metrics) journaled through it, and the harness's work counters are
	// published to its registry. Nil disables observation at zero cost.
	// Set it with WithObserver; observation never changes results.
	Obs *obs.Observer

	// workers / wantOwnedReplay / ownedReplay implement WithWorkers: a
	// replay engine the harness creates and Close releases. noBatch
	// (WithBatch(false)) builds that engine with the batched replay kernel
	// disabled.
	workers         int
	wantOwnedReplay bool
	ownedReplay     bool
	noBatch         bool

	// telemetry configures per-arm simulation-domain telemetry (interval
	// time-series, table samples, top-K); the zero config disables it. Each
	// uncached arm builds a fresh collector inside its recorder factory, so
	// replay retries never journal a partial stream's records.
	telemetry telemetry.Config

	logMu    sync.Mutex
	once     sync.Once
	profiles flight[*profile.DB]
	hints    flight[*core.HintDB]
	runs     flight[sim.Metrics]

	profilesComputed atomic.Uint64
	runsComputed     atomic.Uint64
	checkpointHits   atomic.Uint64
}

// Stats is a snapshot of the harness's work counters. RunsComputed and
// ProfilesComputed count simulations actually executed (cache and checkpoint
// hits excluded); CheckpointHits counts arms satisfied from the journal. A
// clean resume of a finished sweep therefore shows zero computed and all
// hits.
type Stats struct {
	ProfilesComputed uint64
	RunsComputed     uint64
	CheckpointHits   uint64
}

// Stats returns the current work counters.
func (h *Harness) Stats() Stats {
	return Stats{
		ProfilesComputed: h.profilesComputed.Load(),
		RunsComputed:     h.runsComputed.Load(),
		CheckpointHits:   h.checkpointHits.Load(),
	}
}

// setup propagates configuration to the flight caches once, on first use.
func (h *Harness) setup() {
	h.once.Do(func() {
		h.profiles.retry = h.Retry
		h.hints.retry = h.Retry
		h.runs.retry = h.Retry
	})
}

// lookup resolves a workload name through the configured hook.
func (h *Harness) lookup(name string) (workload.Program, error) {
	if h.Lookup != nil {
		return h.Lookup(name)
	}
	return workload.Get(name)
}

// newPredictor builds a predictor through the configured hook.
func (h *Harness) newPredictor(spec string) (predictor.Predictor, error) {
	if h.NewPredictor != nil {
		return h.NewPredictor(spec)
	}
	return predictor.New(spec)
}

// feed drives one freshly built recorder with the branch stream of prog on
// input — through the replay engine's shared capture when one is attached,
// by direct execution otherwise. newRec must build the arm's recorder from
// scratch on every call (the engine re-invokes it when a shared capture
// fails mid-stream and the partial feed must be discarded); feed leaves the
// recorder of the final, successful attempt for the caller to read. The
// returned phase says how the stream was fed — direct execution
// (PhaseSimulate), shared capture (PhaseCapture) or replay of one
// (PhaseReplay) — for the arm's span. span is the arm's lifecycle span:
// when it traces, a capturing arm is noted in the cross-link registry under
// the capture key, and a replaying arm links the capturer's span — the
// shared work stays attributable from every consumer's trace.
func (h *Harness) feed(ctx context.Context, span *obs.Span, prog workload.Program, input string, newRec func() (trace.Recorder, error)) (obs.Phase, error) {
	if h.Replay == nil {
		rec, err := newRec()
		if err != nil {
			return obs.PhaseSimulate, err
		}
		return obs.PhaseSimulate, workload.RunProgram(ctx, prog, input, rec)
	}
	capKey := "cap|" + replay.Key(prog.Name(), input)
	produce := func(r trace.Recorder) error {
		// produce runs only in the capturing arm's goroutine: this arm is
		// the one recording the shared stream.
		if ts := span.Trace(); ts != nil {
			h.Obs.NoteSpanKey(capKey, ts.Context())
		}
		return workload.RunProgram(ctx, prog, input, r)
	}
	_, src, err := h.Replay.RunSourced(ctx, replay.Key(prog.Name(), input), produce, newRec)
	if src == replay.SourceCapture {
		return obs.PhaseCapture, err
	}
	if sc, ok := h.Obs.SpanForKey(capKey); ok {
		span.Trace().Link(sc, "capture")
	}
	return obs.PhaseReplay, err
}

// linkFollower publishes a follower span for a singleflight-coalesced call:
// the wall time this caller spent blocked on (or recalling) the winner's
// work, cross-linked to the winner's span so a tenant's latency stays
// decomposable even when the work ran under another request's trace. No-op
// unless the observer traces.
func (h *Harness) linkFollower(ctx context.Context, start time.Time, name, key string, err error) {
	fs, _ := h.Obs.StartSpan(ctx, name)
	if fs == nil {
		return
	}
	fs.SetStart(start)
	fs.SetKey(key)
	fs.SetSource(obs.SourceSingleflight)
	if sc, ok := h.Obs.SpanForKey(key); ok {
		fs.Link(sc, "singleflight")
	}
	fs.End(err)
}

// countPanic bumps the observer's panic counter when err carries an
// isolated arm panic.
func (h *Harness) countPanic(err error) {
	var pe *workload.PanicError
	if errors.As(err, &pe) {
		h.Obs.Counter(obs.MPanics).Add(1)
	}
}

// armCtx derives the context one uncached simulation runs under.
func (h *Harness) armCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if h.ArmTimeout > 0 {
		return context.WithTimeout(ctx, h.ArmTimeout)
	}
	return context.WithCancel(ctx)
}

// guard runs fn with panic isolation: a cooperative-cancellation Stop
// becomes its context error, any other panic becomes a *workload.PanicError
// with the panic-site stack. It is the harness's last line of defense for
// code that runs outside workload.RunProgram (predictor construction, hint
// selection, metric finalization).
func guard[T any](fn func() (T, error)) (val T, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if stopErr, ok := trace.AsStop(r); ok {
			err = stopErr
			return
		}
		err = &workload.PanicError{Value: r, Stack: debug.Stack()}
	}()
	return fn()
}

// NewHarness returns a full-scale harness (ref/train inputs), configured by
// the given options.
func NewHarness(opts ...HarnessOption) *Harness {
	return (&Harness{RefInput: workload.InputRef, TrainInput: workload.InputTrain}).apply(opts)
}

// NewQuickHarness returns a reduced harness for tests and -short benches:
// measurements run on the train input, cross-training profiles on the test
// input. Shapes shrink but every code path is exercised.
func NewQuickHarness(opts ...HarnessOption) *Harness {
	return (&Harness{RefInput: workload.InputTrain, TrainInput: workload.InputTest}).apply(opts)
}

func (h *Harness) logf(format string, args ...any) {
	if h.Log != nil {
		h.logMu.Lock()
		fmt.Fprintf(h.Log, format+"\n", args...)
		h.logMu.Unlock()
	}
}

// Profile returns the memoized phase-1 profile of predSpec over wl/input.
// An empty predSpec collects a bias-only profile. The simulation runs under
// ctx (plus the per-arm deadline, if configured); failures are reported as
// *ArmError and are not memoized, so a later call retries.
func (h *Harness) Profile(ctx context.Context, wl, input, predSpec string) (*profile.DB, error) {
	h.setup()
	spec := predictor.Canonical(predSpec)
	key := "p|" + wl + "|" + input + "|" + spec
	var span *obs.Span
	attempts := 0
	started := time.Now()
	db, shared, err := h.profiles.doShared(ctx, key, func() (*profile.DB, error) {
		// The span is created inside the singleflight fn — it runs in the
		// winning caller's goroutine — so one arm gets exactly one span no
		// matter how many callers coalesce onto it. Retries re-enter fn and
		// accumulate onto the same span. StartArmCtx threads the winner's
		// trace context down to nested work.
		if attempts++; attempts == 1 {
			span, ctx = h.Obs.StartArmCtx(ctx, "profile", key)
			span.SetLabels(wl, input, spec, "")
		} else {
			span.AddRetry()
		}
		if h.Checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			db, ok := h.Checkpoint.LookupProfile(key)
			endCk()
			if ok {
				h.checkpointHits.Add(1)
				h.Obs.Counter(obs.MCheckpointHits).Add(1)
				span.SetSource(obs.SourceCheckpoint)
				span.SetEvents(db.DynamicBranches())
				h.logf("profile %-8s %-5s %-14s (checkpoint)", wl, input, spec)
				return db, nil
			}
		}
		armCtx, cancel := h.armCtx(ctx)
		defer cancel()
		db, err := guard(func() (*profile.DB, error) {
			h.logf("profile %-8s %-5s %s", wl, input, spec)
			prog, err := h.lookup(wl)
			if err != nil {
				return nil, err
			}
			// The recorder (and the profile DB it fills) is rebuilt inside
			// the factory: a replay retry must not accumulate into a DB
			// that already saw a partial stream.
			var db *profile.DB
			t0 := time.Now()
			var phase obs.Phase
			if predSpec == "" {
				var rec *biasOnly
				phase, err = h.feed(armCtx, span, prog, input, func() (trace.Recorder, error) {
					db = profile.NewDB(wl, input)
					rec = &biasOnly{db: db}
					return rec, nil
				})
				span.AddPhase(phase, time.Since(t0))
				if err != nil {
					return nil, err
				}
				db.Instructions = rec.instr
			} else {
				var r *sim.Runner
				phase, err = h.feed(armCtx, span, prog, input, func() (trace.Recorder, error) {
					p, err := h.newPredictor(predSpec)
					if err != nil {
						return nil, err
					}
					db = profile.NewDB(wl, input)
					r = sim.NewRunner(p, sim.WithLabels(wl, input), sim.WithCollisions(), sim.WithProfile(db), sim.WithObserver(h.Obs),
						sim.WithTelemetry(telemetry.New(h.telemetry, h.Obs)))
					return r, nil
				})
				span.AddPhase(phase, time.Since(t0))
				if err != nil {
					return nil, err
				}
				endSeal := span.Phase(obs.PhaseSeal)
				r.Metrics() // stamps db.Instructions
				endSeal()
			}
			return db, nil
		})
		if err != nil {
			return nil, err
		}
		h.profilesComputed.Add(1)
		if h.Checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			if err := h.Checkpoint.SaveProfile(key, db); err != nil {
				h.logf("checkpoint: %v", err)
			}
			endCk()
		}
		span.SetEvents(db.DynamicBranches())
		return db, nil
	})
	if shared {
		h.Obs.Counter(obs.MSingleflightHits).Add(1)
		h.linkFollower(ctx, started, "profile:wait", key, err)
	} else {
		h.countPanic(err)
		span.End(err)
	}
	return db, armError("profile", key, err)
}

// biasOnly is the bias-only phase-1 profiler: a trace.Recorder for the
// capture tee and a trace.BlockSink, so replays feed it decoded blocks.
// It reports no BatchKernel, so a capturing biasOnly stays on the per-event
// tee and capture builds no decoded-block cache for it.
type biasOnly struct {
	db    *profile.DB
	instr uint64
}

func (b *biasOnly) Branch(pc uint64, taken bool) {
	b.instr++
	b.db.Record(pc, taken)
}

func (b *biasOnly) Ops(n uint64) { b.instr += n }

// RunBlock implements trace.BlockSink.
func (b *biasOnly) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	for i, pc := range pcs {
		b.instr += ops[i] + 1
		b.db.Record(pc, taken[i])
	}
}

// Arm describes one measured configuration.
type Arm struct {
	Workload string
	Input    string // measurement input; empty = harness RefInput
	Pred     string // predictor spec
	Scheme   string // "none", "static95", "staticacc", "staticfac", "staticcol", ...
	// ProfileInput is where hints are profiled; empty = self-trained
	// (same as measurement input).
	ProfileInput string
	// FilterDrift, when > 0 with cross-training, removes branches whose
	// bias drifts more than this between ProfileInput and the measurement
	// input before selecting hints (the paper's merged-profile filter).
	FilterDrift float64
	Shift       core.ShiftPolicy
}

func (a Arm) key() string {
	return fmt.Sprintf("r|%s|%s|%s|%s|%s|%g|%d", a.Workload, a.Input, predictor.Canonical(a.Pred), a.Scheme, a.ProfileInput, a.FilterDrift, a.Shift)
}

// schemeLabel is the scheme for journal records: "none" when unset.
func (a Arm) schemeLabel() string {
	if a.Scheme == "" {
		return "none"
	}
	return a.Scheme
}

// Hints returns the memoized hint set for an arm ("none" → nil).
func (h *Harness) Hints(ctx context.Context, a Arm) (*core.HintDB, error) {
	if a.Scheme == "" || a.Scheme == "none" {
		return nil, nil
	}
	h.setup()
	profInput := a.ProfileInput
	if profInput == "" {
		profInput = a.input(h)
	}
	key := fmt.Sprintf("h|%s|%s|%s|%s|%g|%s", a.Workload, profInput, predictor.Canonical(a.Pred), a.Scheme, a.FilterDrift, a.input(h))
	hd, err := h.hints.do(ctx, key, func() (*core.HintDB, error) {
		return guard(func() (*core.HintDB, error) {
			sel, err := core.SelectorByName(a.Scheme)
			if err != nil {
				return nil, err
			}
			// Static95 needs only bias; the others need the predictor's
			// per-branch accuracy profile.
			predSpec := a.Pred
			if _, ok := sel.(core.Static95); ok {
				predSpec = ""
			}
			db, err := h.Profile(ctx, a.Workload, profInput, predSpec)
			if err != nil {
				return nil, err
			}
			if a.FilterDrift > 0 && profInput != a.input(h) {
				// Spike-style profile maintenance: drop unstable branches
				// using the measurement input's bias profile.
				refDB, err := h.Profile(ctx, a.Workload, a.input(h), "")
				if err != nil {
					return nil, err
				}
				db = db.Clone()
				db.RemoveUnstable(refDB, a.FilterDrift)
			}
			return sel.Select(db)
		})
	})
	return hd, armError("hints", key, err)
}

func (a Arm) input(h *Harness) string {
	if a.Input != "" {
		return a.Input
	}
	return h.RefInput
}

// Run executes (or recalls) one arm and returns its metrics. Collision
// tracking is always on. The simulation runs under ctx plus the per-arm
// deadline; failures are reported as *ArmError and not memoized.
func (h *Harness) Run(ctx context.Context, a Arm) (sim.Metrics, error) {
	m, _, err := h.RunAttributed(ctx, a)
	return m, err
}

// RunAttributed is Run plus result attribution: the second return value
// says where the metrics came from — obs.SourceComputed (simulated here),
// obs.SourceCheckpoint (recalled from disk) or obs.SourceSingleflight
// (coalesced onto another caller's in-flight or memoized arm). The serve
// daemon uses it to count per-tenant capture-cache savings.
func (h *Harness) RunAttributed(ctx context.Context, a Arm) (sim.Metrics, string, error) {
	h.setup()
	spec := predictor.Canonical(a.Pred)
	key := a.key() + "|" + a.input(h)
	var span *obs.Span
	attempts := 0
	started := time.Now()
	src := obs.SourceComputed
	m, shared, err := h.runs.doShared(ctx, key, func() (sim.Metrics, error) {
		if attempts++; attempts == 1 {
			span, ctx = h.Obs.StartArmCtx(ctx, "run", key)
			span.SetLabels(a.Workload, a.input(h), spec, a.schemeLabel())
		} else {
			span.AddRetry()
		}
		if h.Checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			m, ok := h.Checkpoint.LookupRun(key)
			endCk()
			if ok {
				h.checkpointHits.Add(1)
				h.Obs.Counter(obs.MCheckpointHits).Add(1)
				src = obs.SourceCheckpoint
				span.SetSource(obs.SourceCheckpoint)
				span.SetEvents(m.Branches)
				span.SetMetrics(m)
				h.logf("run     %-8s %-5s %-14s %-10s (checkpoint)", a.Workload, a.input(h), spec, a.schemeLabel())
				return m, nil
			}
		}
		armCtx, cancel := h.armCtx(ctx)
		defer cancel()
		m, err := guard(func() (sim.Metrics, error) {
			// Hints are memoized and effectively read-only, so they are
			// resolved once; the predictor stack is rebuilt inside the
			// factory so a replay retry starts from pristine tables. The
			// select phase covers hint resolution, including any nested
			// profile arms it triggers (those get their own spans too).
			endSel := span.Phase(obs.PhaseSelect)
			hints, err := h.Hints(armCtx, a)
			endSel()
			if err != nil {
				return sim.Metrics{}, err
			}
			prog, err := h.lookup(a.Workload)
			if err != nil {
				return sim.Metrics{}, err
			}
			input := a.input(h)
			h.logf("run     %-8s %-5s %-14s %-10s shift=%v prof=%s", a.Workload, input, spec, a.schemeLabel(), a.Shift, a.ProfileInput)
			var r *sim.Runner
			t0 := time.Now()
			phase, err := h.feed(armCtx, span, prog, input, func() (trace.Recorder, error) {
				dyn, err := h.newPredictor(a.Pred)
				if err != nil {
					return nil, err
				}
				p := core.NewCombined(dyn, hints, a.Shift)
				r = sim.NewRunner(p, sim.WithLabels(a.Workload, input), sim.WithCollisions(), sim.WithObserver(h.Obs),
					sim.WithTelemetry(telemetry.New(h.telemetry, h.Obs)))
				return r, nil
			})
			span.AddPhase(phase, time.Since(t0))
			if err != nil {
				return sim.Metrics{}, err
			}
			endSeal := span.Phase(obs.PhaseSeal)
			m := r.Metrics()
			endSeal()
			return m, nil
		})
		if err != nil {
			return sim.Metrics{}, err
		}
		h.runsComputed.Add(1)
		if h.Checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			if err := h.Checkpoint.SaveRun(key, m); err != nil {
				h.logf("checkpoint: %v", err)
			}
			endCk()
		}
		span.SetEvents(m.Branches)
		span.SetMetrics(m)
		return m, nil
	})
	if shared {
		src = obs.SourceSingleflight
		h.Obs.Counter(obs.MSingleflightHits).Add(1)
		h.linkFollower(ctx, started, "run:wait", key, err)
	} else {
		h.countPanic(err)
		span.End(err)
	}
	return m, src, armError("run", key, err)
}

// Improvement returns the relative MISP/KI improvement of arm over the
// matching no-static baseline (positive = fewer mispredictions), the paper's
// Tables 3 and 4 metric.
func (h *Harness) Improvement(ctx context.Context, a Arm) (float64, error) {
	base := a
	base.Scheme = "none"
	base.Shift = core.NoShift
	base.ProfileInput = ""
	base.FilterDrift = 0
	mb, err := h.Run(ctx, base)
	if err != nil {
		return 0, err
	}
	ma, err := h.Run(ctx, a)
	if err != nil {
		return 0, err
	}
	if mb.MISPKI() == 0 {
		return 0, nil
	}
	return 1 - ma.MISPKI()/mb.MISPKI(), nil
}

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
}

// An Experiment regenerates one table or figure of the paper. Run executes
// under ctx: cancelling it stops the experiment's arms cooperatively.
type Experiment struct {
	ID          string
	Title       string
	Paper       string // which paper artifact it reproduces, e.g. "Table 3"
	Description string
	Run         func(ctx context.Context, h *Harness) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder lists experiments the way the paper presents its results;
// ablations follow. Unlisted experiments (if any are added) sort last in
// registration order.
var paperOrder = []string{
	"table1", "table2",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"table3", "table4", "table5", "fig13",
	"abl-cutoff", "abl-shift", "abl-agree", "abl-staticcol", "abl-zoo", "abl-history", "abl-modern", "abl-pipeline", "abl-extra",
	"conf-grid",
	"smoke",
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	rank := map[string]int{}
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		default:
			return false
		}
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (known: %v)", id, ids)
}
