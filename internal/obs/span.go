package obs

import (
	"context"
	"encoding/json"
	"time"
)

// Phase names one stage of an arm's lifecycle. The stream-feeding stage is
// recorded under the name that says where the branch events actually came
// from: "capture" (this arm executed the instrumented workload and recorded
// it), "replay" (fed from a shared capture) or "simulate" (direct execution,
// no replay engine attached).
type Phase string

// Arm lifecycle phases.
const (
	PhaseCapture    Phase = "capture"
	PhaseReplay     Phase = "replay"
	PhaseSimulate   Phase = "simulate"
	PhaseSelect     Phase = "select"
	PhaseCheckpoint Phase = "checkpoint"
	// PhaseSeal is the telemetry-seal stage: stamping final metrics and
	// flushing the arm's telemetry records.
	PhaseSeal Phase = "seal"
	// PhaseQueue is how long an admitted serve arm waited to start: for a
	// worker slot, then for its goroutine. It appears only on serve's "arm"
	// trace spans, which start at queue entry; harness arm spans never
	// record it, so it never appears in ArmRecord.Phases.
	PhaseQueue Phase = "queue_wait"
)

// Arm-record Source values: where the arm's result came from.
const (
	SourceComputed     = "computed"     // simulated in this process
	SourceCheckpoint   = "checkpoint"   // recalled from the on-disk journal
	SourceSingleflight = "singleflight" // coalesced onto another arm's work
)

// PhaseTiming is one phase's wall time inside an arm record.
type PhaseTiming struct {
	Phase Phase `json:"phase"`
	Nanos int64 `json:"ns"`
}

// ArmRecord is the journal's unit: one completed arm of a sweep. Records are
// written as JSON Lines — one object per line — so journals stream, append
// across resumed runs, and grep cleanly.
type ArmRecord struct {
	// Type and V are the record envelope: RecArm and the schema version,
	// stamped on write. Absent on journals from before the telemetry schema.
	Type string `json:"type,omitempty"`
	V    int    `json:"v,omitempty"`

	// Time is when the arm finished, RFC 3339 with nanoseconds.
	Time time.Time `json:"time"`
	// Kind is the harness stage: "profile", "run" or "simulate" (facade).
	Kind string `json:"kind"`
	// Key is the arm's memoization key — the same string the singleflight
	// cache and the checkpoint journal use.
	Key string `json:"key"`

	Workload  string `json:"workload,omitempty"`
	Input     string `json:"input,omitempty"`
	Predictor string `json:"predictor,omitempty"` // canonical spec string
	Scheme    string `json:"scheme,omitempty"`

	// Source says where the result came from: computed, checkpoint or
	// singleflight.
	Source string `json:"source"`
	// Phases are the wall times of the arm's lifecycle stages, in the order
	// they ran.
	Phases []PhaseTiming `json:"phases,omitempty"`
	// Retries counts in-place re-attempts beyond the first (transient
	// failures that were retried before the arm concluded).
	Retries int `json:"retries,omitempty"`
	// Faults counts injected faults that fired during the arm (fault-test
	// pipelines only; approximate when arms overlap, exact when serial).
	Faults uint64 `json:"faults,omitempty"`

	// Events is the arm's dynamic branch count.
	Events uint64 `json:"events,omitempty"`
	// WallNanos is the arm's total wall time.
	WallNanos int64 `json:"wall_ns"`
	// EventsPerSec is Events divided by the stream phase's wall time (the
	// capture/replay/simulate stage), the arm's simulation throughput.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`

	// Metrics is the arm's final sim.Metrics, verbatim. It is kept as raw
	// JSON here so this package stays import-free of the simulator; decode
	// it into sim.Metrics to compare runs.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Error is the arm's failure, if it had one.
	Error string `json:"error,omitempty"`
}

// Span is one timed operation: a node of a request trace and, for an arm
// opened by StartArm, the arm's lifecycle record. It holds the SpanRecord it
// publishes to the live bus when the observer traces. An arm span also holds
// its arm-only fields (labels, retries, events, metrics, fault baseline), and
// End projects the rest of its journal ArmRecord from that same SpanRecord,
// so the two views of an arm cannot disagree. The ArmRecord never carries
// trace fields, so journal bytes are identical with tracing on or off.
//
// A span belongs to the single goroutine executing its operation; it is not
// safe for concurrent use. A nil *Span (from a nil observer, or StartSpan
// without tracing) is a no-op, so callers thread it unconditionally.
type Span struct {
	o     *Observer
	rec   SpanRecord
	start time.Time

	// arm is the journal record of an arm span (nil for a plain trace
	// span): the arm-only setters fill it, End projects the rest from rec.
	// faults0 is the fault counter when the arm started.
	arm     *ArmRecord
	faults0 uint64
}

// StartSpan opens a trace span named name as a child of the span carried by
// ctx (a root span if ctx carries none) and returns it together with a
// context carrying the new span. On a nil observer — or one built without
// WithTracing — it returns (nil, ctx) unchanged, so the disabled path costs
// one branch and no allocation.
func (o *Observer) StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	if o == nil || !o.tracing {
		return nil, ctx
	}
	s := o.newSpan(ctx, name)
	return s, ContextWithSpan(ctx, s.Context())
}

// StartArm opens the span of one arm. kind is the harness stage ("profile",
// "run", "simulate"); key is the arm's memoization key. The span is journaled
// when it ends. When the observer traces, the span is a child of the span
// carried by ctx, the returned context carries the arm's span (so nested
// work — the shared capture — attributes to it), and the span is noted under
// key in the cross-link registry so singleflight followers can link the
// winner. Otherwise ctx is returned unchanged.
func (o *Observer) StartArm(ctx context.Context, kind, key string) (*Span, context.Context) {
	if o == nil {
		return nil, ctx
	}
	o.Counter(MArmsStarted).Add(1)
	o.Gauge(MArmsRunning).Add(1)
	o.Publish(&ArmStartRecord{Time: time.Now(), Kind: kind, Key: key})
	s := o.newSpan(ctx, kind)
	s.rec.Key = key
	s.rec.Source = SourceComputed
	s.arm = &ArmRecord{}
	s.faults0 = o.Counter(MFaultsInjected).Value()
	if o.tracing {
		ctx = ContextWithSpan(ctx, s.Context())
		o.NoteSpanKey(key, s.Context())
	}
	return s, ctx
}

// newSpan starts a span named name now; when the observer traces it gets
// its identifiers, parented by the span ctx carries.
func (o *Observer) newSpan(ctx context.Context, name string) *Span {
	s := &Span{o: o, start: time.Now(), rec: SpanRecord{Name: name}}
	if !o.tracing {
		return s
	}
	s.rec.SpanID = newID()
	if parent, ok := SpanFromContext(ctx); ok {
		s.rec.TraceID = parent.TraceID
		s.rec.ParentID = parent.SpanID
	} else {
		s.rec.TraceID = newID()
	}
	return s
}

// Context returns the span's identity (zero for nil, and for an arm span of
// an observer that does not trace).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// SetTenant records the owning tenant.
func (s *Span) SetTenant(tenant string) {
	if s != nil {
		s.rec.Tenant = tenant
	}
}

// SetJob records the owning job ID.
func (s *Span) SetJob(id string) {
	if s != nil {
		s.rec.Job = id
	}
}

// SetKey records the arm memoization key the span covers.
func (s *Span) SetKey(key string) {
	if s != nil {
		s.rec.Key = key
	}
}

// SetSource records where the spanned operation's result came from
// (SourceComputed is an arm span's default).
func (s *Span) SetSource(source string) {
	if s != nil {
		s.rec.Source = source
	}
}

// SetStart rewinds the span's start time — for a span opened after an
// already-measured wait began (a serve arm's queue wait, a singleflight
// follower's blocked time).
func (s *Span) SetStart(t time.Time) {
	if s != nil {
		s.start = t
	}
}

// SetLabels records the arm's identity. Empty strings leave the previous
// value (so callers can fill labels incrementally).
func (s *Span) SetLabels(workload, input, predictor, scheme string) {
	if s == nil || s.arm == nil {
		return
	}
	if workload != "" {
		s.arm.Workload = workload
	}
	if input != "" {
		s.arm.Input = input
	}
	if predictor != "" {
		s.arm.Predictor = predictor
	}
	if scheme != "" {
		s.arm.Scheme = scheme
	}
}

// AddPhase appends one phase that ended now and lasted d, and feeds the
// per-phase duration histogram. Phase offsets are relative to the span
// start, so renderers can draw a waterfall without cross-referencing wall
// clocks.
func (s *Span) AddPhase(p Phase, d time.Duration) {
	if s == nil {
		return
	}
	s.rec.Phases = append(s.rec.Phases, SpanPhase{
		Phase:       p,
		OffsetNanos: int64(time.Since(s.start) - d),
		DurNanos:    int64(d),
	})
	if name, ok := phaseHists[p]; ok {
		s.o.Histogram(name).Observe(d)
	}
}

// phaseHists maps an arm phase to its duration histogram; phases without
// one (queue_wait) are absent.
var phaseHists = map[Phase]string{
	PhaseCapture: MPhaseCapture, PhaseReplay: MPhaseReplay, PhaseSimulate: MPhaseSimulate,
	PhaseSelect: MPhaseSelect, PhaseCheckpoint: MPhaseCheckpoint, PhaseSeal: MPhaseSeal,
}

// Phase starts timing phase p and returns the function that ends it. Usage:
//
//	defer span.Phase(obs.PhaseSelect)()
func (s *Span) Phase(p Phase) func() {
	if s == nil {
		return noop
	}
	t0 := time.Now()
	return func() { s.AddPhase(p, time.Since(t0)) }
}

var noop = func() {}

// AddRetry counts one in-place re-attempt, on the span and on the
// registry's global retry counter.
func (s *Span) AddRetry() {
	if s == nil || s.arm == nil {
		return
	}
	s.arm.Retries++
	s.o.Counter(MRetries).Add(1)
}

// SetEvents records the arm's dynamic branch count.
func (s *Span) SetEvents(n uint64) {
	if s != nil && s.arm != nil {
		s.arm.Events = n
	}
}

// SetMetrics attaches the arm's final metrics (marshalled to JSON verbatim).
func (s *Span) SetMetrics(v any) {
	if s == nil || s.arm == nil {
		return
	}
	if data, err := json.Marshal(v); err == nil {
		s.arm.Metrics = data
	}
}

// Link records a cross-trace reference to another span: kind "singleflight"
// points a follower at the winner that computed its result, kind "capture"
// points a replaying arm at the capture that recorded its stream. Zero
// targets are ignored.
func (s *Span) Link(target SpanContext, kind string) {
	if s == nil || target.TraceID == "" {
		return
	}
	s.rec.Links = append(s.rec.Links, SpanLink{
		TraceID: target.TraceID, SpanID: target.SpanID, Kind: kind,
	})
}

// End closes the span. err is the operation's outcome (nil for success).
// When the observer traces, the span frame is published to the live bus
// (never the journal). An arm span also updates the arm counters and the
// arm-wall histogram, and journals its ArmRecord.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.rec.Time = time.Now()
	s.rec.StartNanos = s.start.UnixNano()
	s.rec.DurNanos = int64(s.rec.Time.Sub(s.start))
	if err != nil {
		s.rec.Error = err.Error()
	}
	if s.arm != nil {
		s.endArm(err)
	}
	if s.o.tracing {
		s.o.Counter(MSpansPublished).Add(1)
		s.o.Publish(&s.rec)
	}
	if s.arm != nil {
		s.o.Emit(s.arm)
		s.o.Publish(s.arm)
	}
}

// endArm updates the arm counters and the arm-wall histogram and completes
// the arm's journal record by projecting the span onto it: kind is the span
// name, wall time its duration, and phases keep only their durations.
// EventsPerSec divides the events by the last stream-feeding phase (capture,
// replay or direct simulate), which is the successful attempt's when a failed
// attempt was retried, or by the wall time when there is none.
func (s *Span) endArm(err error) {
	s.o.Gauge(MArmsRunning).Add(-1)
	if err != nil {
		s.o.Counter(MArmsFailed).Add(1)
	} else {
		s.o.Counter(MArmsDone).Add(1)
	}
	wall := time.Duration(s.rec.DurNanos)
	if s.o.tracing && s.o.slowArm > 0 && wall >= s.o.slowArm {
		// A slow arm: pin an exemplar so the latency bucket leads back to
		// this arm's trace.
		s.o.Histogram(MArmWall).ObserveExemplar(wall, s.rec.TraceID)
	} else {
		s.o.Histogram(MArmWall).Observe(wall)
	}

	a := s.arm
	a.Time, a.Kind, a.Key, a.Source = s.rec.Time, s.rec.Name, s.rec.Key, s.rec.Source
	a.WallNanos, a.Error = s.rec.DurNanos, s.rec.Error
	a.Faults = s.o.Counter(MFaultsInjected).Value() - s.faults0
	stream := s.rec.DurNanos
	for _, p := range s.rec.Phases {
		a.Phases = append(a.Phases, PhaseTiming{Phase: p.Phase, Nanos: p.DurNanos})
		switch p.Phase {
		case PhaseCapture, PhaseReplay, PhaseSimulate:
			stream = p.DurNanos
		}
	}
	if a.Events > 0 && stream > 0 {
		a.EventsPerSec = float64(a.Events) / (float64(stream) / 1e9)
	}
}
