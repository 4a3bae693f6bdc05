// Package cliflags holds the flag groups the branchsim commands share —
// replay-engine tuning, telemetry selection, and observability sinks — so
// bpexperiment, bpsim and bpserve register identical flag names with
// identical semantics instead of drifting copies.
//
// Each group is a plain struct: Register binds its fields to a FlagSet (with
// the canonical defaults and help text), and a build method turns the parsed
// values into the underlying configuration. The zero value of every group is
// valid and means "all features off", which is what command tests construct
// directly.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"branchsim/internal/dashboard"
	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/replay"
	"branchsim/internal/telemetry"
)

// Telemetry is the -interval / -table-stats / -confidence / -topk flag
// group.
type Telemetry struct {
	Interval   uint64
	TableStats bool
	Confidence bool
	TopK       int
}

// Register binds the telemetry flags to fs.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&t.Interval, "interval", 0, "journal an interval telemetry record every N instructions (0 = off; requires -journal to persist)")
	fs.BoolVar(&t.TableStats, "table-stats", false, "sample predictor-table introspection (occupancy, counter states, entropy, sharing; per-bank tagged stats for tage/perceptron) at interval boundaries")
	fs.BoolVar(&t.Confidence, "confidence", false, "collect per-prediction confidence telemetry (interval records plus a low-confidence top-K with -topk) for predictors that grade themselves (tage, perceptron)")
	fs.IntVar(&t.TopK, "topk", 0, "track the K worst-offender branches per arm with bounded per-branch stats (0 = off)")
}

// Config converts the parsed flags to a telemetry configuration.
func (t *Telemetry) Config() telemetry.Config {
	return telemetry.Config{Interval: t.Interval, TableStats: t.TableStats, Confidence: t.Confidence, TopK: t.TopK}
}

// Enabled reports whether any telemetry feature was requested.
func (t *Telemetry) Enabled() bool { return t.Config().Enabled() }

// Replay is the capture-once replay engine flag group: -workers,
// -no-batch, -replay-mem, -replay-spill, -verify-chunks, -quarantine-dir.
type Replay struct {
	Workers       int
	NoBatch       bool
	MemMB         int
	SpillDir      string
	VerifyChunks  bool
	QuarantineDir string
}

// Register binds the replay flags to fs.
func (r *Replay) Register(fs *flag.FlagSet) {
	fs.IntVar(&r.Workers, "workers", runtime.GOMAXPROCS(0), "concurrent trace replays in the capture-once engine")
	fs.BoolVar(&r.NoBatch, "no-batch", false, "replay per-event through the scalar Predict/Update protocol instead of the batched block kernel (results are bit-identical; this is an escape hatch and benchmarking baseline)")
	fs.IntVar(&r.MemMB, "replay-mem", 512, "in-memory budget for captured traces, in MiB; beyond it chunks spill to disk (0 = unlimited)")
	fs.StringVar(&r.SpillDir, "replay-spill", "", "directory for spilled trace chunks (default: the system temp directory)")
	fs.BoolVar(&r.VerifyChunks, "verify-chunks", true, "CRC32C-verify every captured trace chunk before replaying it; corrupt chunks are quarantined and the capture retried")
	fs.StringVar(&r.QuarantineDir, "quarantine-dir", "", "preserve corrupt trace chunks and spill files in this directory for post-mortem (default: discard them)")
}

// HarnessOptions builds the harness options the group selects: a configured
// replay engine whose diagnostics go through logf. The returned cleanup
// releases the engine; call it after the harness is done.
func (r *Replay) HarnessOptions(logf func(format string, args ...any)) ([]experiment.HarnessOption, func()) {
	ropts := []replay.Option{
		replay.WithVerify(r.VerifyChunks),
		replay.WithBatch(!r.NoBatch),
	}
	if logf != nil {
		ropts = append(ropts, replay.WithLogf(logf))
	}
	if r.QuarantineDir != "" {
		ropts = append(ropts, replay.WithQuarantine(r.QuarantineDir))
	}
	eng := replay.New(r.Workers, int64(r.MemMB)<<20, r.SpillDir, ropts...)
	return []experiment.HarnessOption{experiment.WithReplay(eng)}, eng.Close
}

// Obs is the observability flag group: -journal, -metrics, -serve,
// -progress, -trace, -slow-arm.
type Obs struct {
	JournalPath string
	MetricsAddr string
	ServeAddr   string
	Progress    bool
	Trace       bool
	SlowArm     time.Duration
}

// Register binds all observability flags to fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	o.RegisterJournal(fs)
	fs.StringVar(&o.MetricsAddr, "metrics", "", "serve /debug/vars and /debug/pprof on this address while the sweep runs (e.g. 127.0.0.1:8080, or :0 for an ephemeral port)")
	fs.StringVar(&o.ServeAddr, "serve", "", "serve the live dashboard at / plus /metrics (Prometheus), /events (SSE), /debug/vars and /debug/pprof on this address while the sweep runs")
}

// RegisterJournal binds only -journal and -progress — for commands like
// bpserve whose primary listener already hosts the dashboard and metrics.
func (o *Obs) RegisterJournal(fs *flag.FlagSet) {
	fs.StringVar(&o.JournalPath, "journal", "", "write one JSONL record per simulated arm to this file")
	fs.BoolVar(&o.Progress, "progress", false, "print a periodic one-line sweep status to stderr")
	fs.BoolVar(&o.Trace, "trace", true, "publish live-only trace spans (request → job → arm → phase) on the event bus; journals are unaffected")
	fs.DurationVar(&o.SlowArm, "slow-arm", 30*time.Second, "arms at least this slow record a latency-histogram exemplar linking the bucket to their trace (0 = off)")
}

// Enabled reports whether any observability flag was set. -trace and
// -slow-arm only shape an observer that exists for another reason; on their
// own they do not force one into being (tracing without a bus or journal
// would observe nothing).
func (o *Obs) Enabled() bool {
	return o.JournalPath != "" || o.MetricsAddr != "" || o.ServeAddr != "" || o.Progress
}

// ObserverOptions returns the obs options the tracing flags select; callers
// that build an observer directly (bpserve) apply them alongside their own.
func (o *Obs) ObserverOptions() []obs.Option {
	var opts []obs.Option
	if o.Trace {
		opts = append(opts, obs.WithTracing())
	}
	if o.SlowArm > 0 {
		opts = append(opts, obs.WithSlowArm(o.SlowArm))
	}
	return opts
}

// Observer builds the shared sink, journal-backed when -journal was given.
// It returns nil (a valid no-op sink) when no observability flag was set —
// the zero-cost default. The caller owns the observer and closes it.
func (o *Obs) Observer() (*obs.Observer, error) {
	if !o.Enabled() {
		return nil, nil
	}
	opts := o.ObserverOptions()
	if o.JournalPath != "" {
		j, err := obs.OpenJournal(o.JournalPath)
		if err != nil {
			return nil, err
		}
		opts = append(opts, obs.WithJournal(j))
	}
	return obs.New(opts...), nil
}

// StartEndpoints starts whatever the group's flags asked for on sink: the
// -metrics debug endpoint, the -serve dashboard (wrapped by wrap when
// non-nil, which is how bpserve mounts its job API in front of the
// dashboard), and the -progress reporter logging to logw. prog prefixes the
// startup lines. The returned cleanup stops everything; call it on every
// exit path (safe when nothing was started).
func (o *Obs) StartEndpoints(sink *obs.Observer, prog string, logw io.Writer, wrap func(http.Handler) http.Handler) (func(), error) {
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	if o.MetricsAddr != "" {
		srv, err := sink.Serve(o.MetricsAddr)
		if err != nil {
			cleanup()
			return nil, err
		}
		cleanups = append(cleanups, func() { srv.Close() })
		fmt.Fprintf(logw, "%s: serving metrics on http://%s/debug/vars (pprof under /debug/pprof/)\n", prog, srv.Addr())
	}
	if o.ServeAddr != "" {
		state, stopFeed := dashboard.Attach(sink)
		cleanups = append(cleanups, stopFeed)
		root := http.Handler(dashboard.Handler(state))
		if wrap != nil {
			root = wrap(root)
		}
		srv, err := sink.Serve(o.ServeAddr, obs.WithRootHandler(root))
		if err != nil {
			cleanup()
			return nil, err
		}
		cleanups = append(cleanups, func() { srv.Close() })
		fmt.Fprintf(logw, "%s: dashboard on http://%s/ (/metrics, /events, /debug/vars, /debug/pprof/)\n", prog, srv.Addr())
	}
	if o.Progress {
		cleanups = append(cleanups, sink.StartProgress(logw, 2*time.Second))
	}
	return cleanup, nil
}
