// Package obs is the experiment pipeline's observability layer: an atomic
// in-process metric registry (counters, gauges, timers), per-arm lifecycle
// spans with phase timings, a structured JSONL run journal, a periodic
// terminal progress reporter, and an optional HTTP endpoint serving
// expvar-style metric dumps plus net/http/pprof.
//
// The layer is built around one rule: disabled observability costs nothing.
// Every type in this package is nil-safe — a nil *Observer hands out nil
// *Counter/*Gauge/*Timer/*Span handles, and every method on those nil
// handles is a no-op — so instrumented code calls through unconditionally,
// with no branching at the call sites and no allocation on the disabled
// path. Hot loops (the simulator's per-branch path) additionally batch
// their updates: they accumulate locally and flush deltas at a coarse
// cadence, so even an enabled observer never puts an atomic operation on
// the per-event path.
//
// Well-known metric names are declared as M* constants so the packages
// emitting them and the consumers reading them (the progress reporter, the
// /debug/vars endpoint, tests) agree without importing each other.
package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Well-known metric names (the M* constants) and journal record types (the
// Rec* constants) are declared and registered together in names.go.

// Observer is the top-level observability handle threaded through the
// pipeline: a metric registry plus an optional JSONL journal. A nil
// *Observer is the disabled layer — every method no-ops and every handle it
// returns is itself a no-op. Observers are safe for concurrent use.
type Observer struct {
	reg     *Registry
	journal *Journal
	bus     *Bus
	start   time.Time

	// errw receives the one-shot journal-failure report; nil means stderr.
	errw        io.Writer
	journalOnce sync.Once

	// stopsMu/stops track the stop functions of progress reporters started
	// from this observer, so Close (and Harness.Close, via StopProgress) can
	// terminate their goroutines without holding every stop handle.
	stopsMu sync.Mutex
	stops   []func()

	// tracing enables request-scoped span publication (WithTracing);
	// slowArm is the wall-time threshold past which an arm records a
	// histogram exemplar carrying its trace ID (WithSlowArm, 0 = off).
	tracing bool
	slowArm time.Duration
	// spanKeys is the cross-link registry for singleflight and shared-
	// capture attribution (see trace.go).
	spanKeys spanKeyStore
}

// Option configures an Observer at construction.
type Option func(*Observer)

// WithJournal attaches a run journal: every completed arm span is appended
// to it as one JSONL record. The journal is closed by Observer.Close.
func WithJournal(j *Journal) Option {
	return func(o *Observer) { o.journal = j }
}

// WithErrorLog redirects the observer's own failure reports (journal write
// errors) from stderr to w.
func WithErrorLog(w io.Writer) Option {
	return func(o *Observer) { o.errw = w }
}

// WithTracing enables request-scoped span publication: StartSpan returns
// live spans, arm spans carry trace context, and closed spans are published
// to the event bus as {type:"span",v:1} frames. Journals are unaffected —
// span frames are live-only. Without this option StartSpan returns nil and
// tracing costs one branch per call site.
func WithTracing() Option {
	return func(o *Observer) { o.tracing = true }
}

// WithSlowArm sets the slow-arm threshold: arms whose wall time reaches d
// record an exemplar on the arm-wall histogram linking the latency bucket
// to their trace ID. 0 disables exemplars.
func WithSlowArm(d time.Duration) Option {
	return func(o *Observer) { o.slowArm = d }
}

// New returns an enabled Observer with a fresh registry and live event bus.
func New(opts ...Option) *Observer {
	reg := NewRegistry()
	o := &Observer{reg: reg, bus: newBus(reg), start: time.Now()}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Registry returns the observer's metric registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Journal returns the attached journal, if any (nil for a nil observer).
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// Counter returns the named counter (nil, a no-op, for a nil observer).
func (o *Observer) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge returns the named gauge (nil, a no-op, for a nil observer).
func (o *Observer) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Timer returns the named timer (nil, a no-op, for a nil observer).
func (o *Observer) Timer(name string) *Timer { return o.Registry().Timer(name) }

// Histogram returns the named histogram (nil, a no-op, for a nil observer).
func (o *Observer) Histogram(name string) *Histogram { return o.Registry().Histogram(name) }

// TenantCounter returns the named per-tenant counter child (nil, a no-op,
// for a nil observer).
func (o *Observer) TenantCounter(name, tenant string) *Counter {
	return o.Registry().CounterVec(name).With(tenant)
}

// TenantHistogram returns the named per-tenant histogram child (nil, a
// no-op, for a nil observer).
func (o *Observer) TenantHistogram(name, tenant string) *Histogram {
	return o.Registry().HistogramVec(name).With(tenant)
}

// TracingEnabled reports whether this observer publishes trace spans.
func (o *Observer) TracingEnabled() bool { return o != nil && o.tracing }

// Uptime reports how long the observer has existed — the run's elapsed wall
// time for reporters. Zero for a nil observer.
func (o *Observer) Uptime() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.start)
}

// Close stops any progress reporters started from this observer, shuts the
// live event bus (closing every subscriber's channel), then flushes and
// closes the attached journal, if any. Safe on nil, idempotent.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	o.StopProgress()
	o.bus.Close()
	if o.journal == nil {
		return nil
	}
	return o.journal.Close()
}

// StopProgress stops every progress reporter started from this observer
// (StartProgress registers its stop function here). Each stop is idempotent,
// so StopProgress composes with callers that also hold the individual stop
// handles. Safe on nil.
func (o *Observer) StopProgress() {
	if o == nil {
		return
	}
	o.stopsMu.Lock()
	stops := o.stops
	o.stops = nil
	o.stopsMu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// registerStop remembers a progress reporter's stop function for
// StopProgress/Close.
func (o *Observer) registerStop(stop func()) {
	o.stopsMu.Lock()
	o.stops = append(o.stops, stop)
	o.stopsMu.Unlock()
}

// Flush forces buffered journal records to the underlying writer and, when
// the journal owns a file, syncs it to stable storage. Safe on nil; the
// observer stays usable afterwards (unlike Close).
func (o *Observer) Flush() error {
	if o == nil {
		return nil
	}
	return o.journal.Sync()
}

// Publish mirrors one record to the live event bus only — it never touches
// the journal, so live streaming cannot perturb journal bytes. Use Emit for
// the durable path; span completion goes through both. Safe on nil.
func (o *Observer) Publish(rec JournalRecord) {
	if o == nil {
		return
	}
	o.bus.Publish(rec)
}

// PublishRaw fans one pre-encoded JSONL frame (no trailing newline) out to
// bus subscribers — the replay path for tools like bpdash that re-stream an
// existing journal without re-encoding it. Safe on nil.
func (o *Observer) PublishRaw(line []byte) {
	if o == nil {
		return
	}
	o.bus.publishRaw(line)
}

// Subscribe attaches a live-bus subscriber with a queue bound of buf frames.
// Returns a drained nil subscription for a nil observer, so consumers can
// select on sub.C() unconditionally (pair it with a done channel).
func (o *Observer) Subscribe(buf int) *BusSub {
	if o == nil {
		return nil
	}
	return o.bus.Subscribe(buf)
}

// Emit appends one journal record — an *ArmRecord, *IntervalRecord,
// *TableStatsRecord or *TopKRecord — stamping its type and schema version.
// Journal write failures are reported once and then swallowed: observability
// must never fail the sweep it observes. Safe on nil (and with no journal
// attached), at the cost of one branch.
func (o *Observer) Emit(rec JournalRecord) {
	if o == nil || o.journal == nil {
		return
	}
	if err := o.journal.Write(rec); err != nil {
		o.journalOnce.Do(func() {
			w := o.errw
			if w == nil {
				w = os.Stderr
			}
			fmt.Fprintf(w, "obs: journal write failed (further errors suppressed): %v\n", err)
		})
	}
}
