package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// SchemaV1 is the current journal record schema version. Every record line
// carries its type and version; readers reject versions they do not know
// instead of misparsing them (see SchemaError).
const SchemaV1 = 1

// JournalRecord is implemented by every record type this package journals.
// stamp fills the record's type and schema-version fields before encoding;
// it is unexported because the set of wire types is closed — a new record
// type means a new schema entry in names.go and a reader case below.
type JournalRecord interface {
	stamp()
}

func (r *ArmRecord) stamp()              { r.Type, r.V = RecArm, SchemaV1 }
func (r *IntervalRecord) stamp()         { r.Type, r.V = RecInterval, SchemaV1 }
func (r *TableStatsRecord) stamp()       { r.Type, r.V = RecTableStats, SchemaV1 }
func (r *TopKRecord) stamp()             { r.Type, r.V = RecTopK, SchemaV1 }
func (r *TaggedTableStatsRecord) stamp() { r.Type, r.V = RecTaggedTableStats, SchemaV1 }
func (r *ConfidenceRecord) stamp()       { r.Type, r.V = RecConfidence, SchemaV1 }
func (r *ArmStartRecord) stamp()         { r.Type, r.V = RecArmStart, SchemaV1 }
func (r *ProgressRecord) stamp()         { r.Type, r.V = RecProgress, SchemaV1 }
func (r *DropsRecord) stamp()            { r.Type, r.V = RecDrops, SchemaV1 }
func (r *JobRecord) stamp()              { r.Type, r.V = RecJob, SchemaV1 }
func (r *SpanRecord) stamp()             { r.Type, r.V = RecSpan, SchemaV1 }

// SpanRecord is one closed trace span: a node of a request's span tree,
// identified by (trace_id, span_id) with parent_id naming its parent within
// the same trace. Live-only: published to the event bus by Span.End,
// never journaled — the journal must stay byte-identical with tracing on or
// off, per the arm_start/progress precedent. Consumers (bpjournal -trace,
// the dashboard) reassemble the tree from these frames.
type SpanRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	// Time is when the span ended, RFC 3339 with nanoseconds.
	Time time.Time `json:"time"`

	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`

	// Name is the spanned operation: "request", "job", "arm", "run",
	// "profile", "run:wait", "profile:wait", …
	Name string `json:"name"`

	Tenant string `json:"tenant,omitempty"`
	Job    string `json:"job,omitempty"`
	// Key is the arm memoization key the span covers, if any.
	Key string `json:"key,omitempty"`
	// Source says where the spanned result came from (computed, checkpoint,
	// singleflight), when known.
	Source string `json:"source,omitempty"`

	// StartNanos is the span's start as Unix nanoseconds; DurNanos its wall
	// time. Phase offsets below are relative to StartNanos.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`

	// Phases are the span's timed sub-stages, in the order they ran.
	Phases []SpanPhase `json:"phases,omitempty"`
	// Links are cross-trace references: a singleflight follower links the
	// winner's span, a replaying arm links the capture's span.
	Links []SpanLink `json:"links,omitempty"`

	// Error is the spanned operation's failure, if it had one.
	Error string `json:"error,omitempty"`
}

// SpanPhase is one timed sub-stage of a span, offset-relative so renderers
// can draw a waterfall without reconciling wall clocks.
type SpanPhase struct {
	Phase       Phase `json:"phase"`
	OffsetNanos int64 `json:"offset_ns"`
	DurNanos    int64 `json:"dur_ns"`
}

// SpanLink is one cross-trace reference. Kind is "singleflight" (follower →
// winner) or "capture" (replay consumer → capturing arm).
type SpanLink struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Kind    string `json:"kind"`
}

// ArmStartRecord announces that an arm's span opened. It is a live-only
// record: published to the event bus when StartArm fires so dashboards can
// show in-flight arms, never buffered and never written to the journal (the
// journal's unit stays the completed ArmRecord, so journal bytes are
// unchanged by the bus).
type ArmStartRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	// Time is when the arm started, RFC 3339 with nanoseconds.
	Time time.Time `json:"time"`
	// Kind is the harness stage: "profile", "run" or "simulate".
	Kind string `json:"kind"`
	// Key is the arm's memoization key, matching the eventual ArmRecord.
	Key string `json:"key"`
}

// ProgressRecord is a periodic pipeline status snapshot, the streaming twin
// of the terminal progress reporter's one-liner. Live-only: published to the
// event bus by the progress reporter and by the HTTP server's ticker, never
// journaled (it carries wall-clock state, and the journal must stay
// byte-stable).
type ProgressRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	UptimeNanos      int64   `json:"uptime_ns"`
	ArmsDone         uint64  `json:"arms_done"`
	ArmsFailed       uint64  `json:"arms_failed"`
	ArmsRunning      int64   `json:"arms_running"`
	Events           uint64  `json:"events"`
	EventsPerSec     float64 `json:"events_per_sec"`
	ReplayCaptures   uint64  `json:"replay_captures,omitempty"`
	ReplayReplays    uint64  `json:"replay_replays,omitempty"`
	CheckpointHits   uint64  `json:"checkpoint_hits,omitempty"`
	SingleflightHits uint64  `json:"singleflight_hits,omitempty"`
}

// DropsRecord tells one event-bus subscriber how many frames its bounded
// queue discarded (drop-oldest backpressure). The SSE endpoint interleaves
// one into the stream whenever the cumulative count grew, so a slow consumer
// knows its view has gaps instead of silently missing them. Live-only, never
// journaled.
type DropsRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	// Dropped is the cumulative frame count discarded for this subscriber.
	Dropped uint64 `json:"dropped"`
}

// JobRecord is one sweep job's lifecycle snapshot from the serve daemon:
// published to the event bus when a job is admitted, on every arm
// completion, and when the job reaches a terminal state, so dashboards can
// show cross-job progress. Live-only, never journaled — it carries
// wall-clock state and job identity, and the journal must stay
// byte-identical to an offline run of the same arms.
type JobRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	// Time is when the snapshot was taken, RFC 3339 with nanoseconds.
	Time time.Time `json:"time"`
	// ID is the daemon-assigned job identifier.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Name is the client's freeform job label, if any.
	Name string `json:"name,omitempty"`
	// State is the lifecycle state: "queued", "running", "done", "failed"
	// or "cancelled".
	State string `json:"state"`
	// ArmsTotal is the job's expanded arm count; ArmsDone and ArmsFailed
	// count terminal arms so far.
	ArmsTotal  int `json:"arms_total"`
	ArmsDone   int `json:"arms_done"`
	ArmsFailed int `json:"arms_failed"`
	// Error summarizes the failure of a "failed" job (first failed arm).
	Error string `json:"error,omitempty"`
}

// IntervalRecord is one interval of an arm's simulation-domain time series:
// the counter deltas accumulated between two interval boundaries, emitted
// every N instructions (sim.WithTelemetry). Records deliberately carry no
// wall-clock fields — the series is a function of the branch stream alone,
// so the same (workload, input, predictor) triple journals byte-identical
// records on every run, whatever the worker count.
//
// Intervals close at the first stream event at or after each N-instruction
// boundary (a bulk instruction count can overshoot), plus one final partial
// interval when the run ends; summing any delta field over an arm's records
// therefore reconstructs the corresponding sim.Metrics total exactly.
type IntervalRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	Workload  string `json:"workload"`
	Input     string `json:"input"`
	Predictor string `json:"predictor"`

	// Seq numbers the arm's intervals from zero; Instructions is the
	// cumulative instruction count at which the interval closed.
	Seq          int    `json:"seq"`
	Instructions uint64 `json:"instructions"`

	// Deltas since the previous interval boundary.
	DInstructions uint64 `json:"d_instructions"`
	DBranches     uint64 `json:"d_branches"`
	DTaken        uint64 `json:"d_taken"`
	DMispredicts  uint64 `json:"d_mispredicts"`

	// Collision deltas, populated when the arm tracked collisions.
	CollisionsTracked bool   `json:"collisions_tracked,omitempty"`
	DCollisions       uint64 `json:"d_collisions,omitempty"`
	DConstructive     uint64 `json:"d_constructive,omitempty"`
	DDestructive      uint64 `json:"d_destructive,omitempty"`
}

// MISPKI returns the interval's mispredictions per thousand instructions.
func (r *IntervalRecord) MISPKI() float64 {
	if r.DInstructions == 0 {
		return 0
	}
	return 1000 * float64(r.DMispredicts) / float64(r.DInstructions)
}

// Accuracy returns the interval's prediction accuracy.
func (r *IntervalRecord) Accuracy() float64 {
	if r.DBranches == 0 {
		return 0
	}
	return 1 - float64(r.DMispredicts)/float64(r.DBranches)
}

// TableStat is one counter table's state at a sampling instant, as
// introspected by the predictor (predictor.TableStats mirrors this shape;
// the obs package stays import-free of the predictor layer).
type TableStat struct {
	// Name identifies the table within its predictor ("pht", "choice",
	// "bim", "g0", "g1", "meta", ...).
	Name string `json:"name"`
	// Entries is the table's capacity in counters.
	Entries int `json:"entries"`
	// Occupied counts entries that have been read at least once (known via
	// the collision-instrumentation tags).
	Occupied int `json:"occupied"`
	// Counters is the 2-bit counter state distribution: how many entries
	// currently hold 0 (strong not-taken) through 3 (strong taken).
	Counters [4]uint64 `json:"counters"`
	// Entropy is the Shannon entropy of the Counters distribution in bits
	// (0 = every counter in one state, 2 = uniform across the four).
	Entropy float64 `json:"entropy"`
	// SharingHist is a log₂-bucketed histogram of per-entry ownership
	// switches — bucket 0 counts entries never re-claimed by a different
	// branch, bucket k entries switched between 2^(k-1) and 2^k−1 times —
	// the per-entry sharing degree behind the paper's collision counts.
	// Trailing zero buckets are trimmed.
	SharingHist []uint64 `json:"sharing_hist,omitempty"`
}

// TableStatsRecord is one predictor-table introspection sample, taken at an
// interval boundary when table statistics are enabled. Like IntervalRecord
// it is wall-clock-free and byte-stable across runs.
type TableStatsRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	Workload  string `json:"workload"`
	Input     string `json:"input"`
	Predictor string `json:"predictor"`

	// Seq and Instructions match the interval at whose boundary the sample
	// was taken.
	Seq          int    `json:"seq"`
	Instructions uint64 `json:"instructions"`

	Tables []TableStat `json:"tables"`
}

// TaggedBankStat is one bank of a tagged or neural predictor at a sampling
// instant, as introspected by the predictor (predictor.TaggedBankStats
// mirrors this shape; the obs package stays import-free of the predictor
// layer). The stream counters are cumulative since instrumentation was
// enabled, not deltas.
type TaggedBankStat struct {
	// Name identifies the bank ("base", "t4" … "t64", "weights").
	Name string `json:"name"`
	// Entries is the bank's capacity (counters or weight vectors).
	Entries int `json:"entries"`
	// HistLen is the bank's history length in bits; TagBits its partial-tag
	// width. Both 0 for untagged banks.
	HistLen int `json:"hist_len,omitempty"`
	TagBits int `json:"tag_bits,omitempty"`
	// Occupied counts allocated (nonzero-tag) or touched entries.
	Occupied int `json:"occupied"`
	// Ctr is the counter-state histogram: 8 buckets (-4 … 3) for a TAGE
	// tagged bank, the 4-bucket 2-bit distribution for its base, the
	// log₂ weight-magnitude histogram for a perceptron.
	Ctr []uint64 `json:"ctr,omitempty"`
	// Useful is the 2-bit useful-counter distribution (TAGE tagged banks).
	Useful []uint64 `json:"useful,omitempty"`
	// Saturated counts weights pinned at ±max (perceptron).
	Saturated uint64 `json:"saturated,omitempty"`
	// Margin is the log₂-bucketed |dot product| stream histogram (perceptron).
	Margin []uint64 `json:"margin,omitempty"`
	// Hits/Misses count tag matches/mismatches; Provider predictions this
	// bank provided; AltUsed the newly-allocated overrides; Allocs/AllocFails
	// the allocation churn.
	Hits       uint64 `json:"hits,omitempty"`
	Misses     uint64 `json:"misses,omitempty"`
	Provider   uint64 `json:"provider,omitempty"`
	AltUsed    uint64 `json:"alt_used,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocFails uint64 `json:"alloc_fails,omitempty"`
}

// TaggedTableStatsRecord is one tagged-bank introspection sample, taken at
// an interval boundary when table statistics are enabled and the predictor
// implements the tagged introspector (tage, perceptron). Like the other
// telemetry records it is wall-clock-free — a function of the branch stream
// alone — so journals stay byte-stable at any worker or batch setting.
type TaggedTableStatsRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	Workload  string `json:"workload"`
	Input     string `json:"input"`
	Predictor string `json:"predictor"`

	// Seq and Instructions match the interval at whose boundary the sample
	// was taken.
	Seq          int    `json:"seq"`
	Instructions uint64 `json:"instructions"`

	Banks []TaggedBankStat `json:"banks"`
}

// ConfidenceRecord is one interval of an arm's prediction-confidence time
// series, emitted alongside IntervalRecord when confidence telemetry is on
// and the predictor grades its own predictions (tage, perceptron). The
// delta fields cover the branches between two interval boundaries;
// wall-clock-free and byte-stable like every telemetry record.
type ConfidenceRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	Workload  string `json:"workload"`
	Input     string `json:"input"`
	Predictor string `json:"predictor"`

	// Seq and Instructions match the interval this record closes with.
	Seq          int    `json:"seq"`
	Instructions uint64 `json:"instructions"`

	// DBranches counts graded predictions in the interval; DLow the subset
	// the predictor flagged low-confidence. DLowMispredicts and
	// DHighMispredicts split the interval's mispredictions by that flag —
	// their ratio is the filter question: how many misses live in the
	// population a confidence-based static filter would remove.
	DBranches        uint64 `json:"d_branches"`
	DLow             uint64 `json:"d_low"`
	DLowMispredicts  uint64 `json:"d_low_misp"`
	DHighMispredicts uint64 `json:"d_high_misp"`

	// ScoreHist buckets the interval's confidence scores over [0,1] into
	// eight equal-width bins (bucket 7 includes score 1).
	ScoreHist []uint64 `json:"score_hist,omitempty"`
}

// LowRate returns the interval's low-confidence prediction fraction.
func (r *ConfidenceRecord) LowRate() float64 {
	if r.DBranches == 0 {
		return 0
	}
	return float64(r.DLow) / float64(r.DBranches)
}

// LowMispShare returns the share of the interval's mispredictions that fell
// on low-confidence predictions — the cover a confidence filter would get.
func (r *ConfidenceRecord) LowMispShare() float64 {
	m := r.DLowMispredicts + r.DHighMispredicts
	if m == 0 {
		return 0
	}
	return float64(r.DLowMispredicts) / float64(m)
}

// BranchCount is one entry of a top-K worst-offender list.
type BranchCount struct {
	// PC is the static branch address.
	PC uint64 `json:"pc"`
	// Count is the offending-event count attributed to the branch
	// (destructive collisions or mispredictions, per list). Space-saving
	// semantics: Count may overestimate by at most MaxError.
	Count uint64 `json:"count"`
	// MaxError bounds the overestimation inherited from evicted sketch
	// slots; 0 means the count is exact.
	MaxError uint64 `json:"max_error,omitempty"`
	// Execs, Bias and MispRate are the branch's profile from the bounded
	// site tracker (zero when the site fell off the tracker).
	Execs    uint64  `json:"execs,omitempty"`
	Bias     float64 `json:"bias,omitempty"`
	MispRate float64 `json:"misp_rate,omitempty"`
	// LowRate is the branch's low-confidence prediction fraction (populated
	// on the TopLowConfidence list only).
	LowRate float64 `json:"low_rate,omitempty"`
}

// TopKRecord is one arm's streaming per-branch summary, emitted once at the
// end of the run: log-bucketed histograms of per-branch bias and
// misprediction rate over the tracked sites, plus bounded worst-offender
// lists from two space-saving sketches — the static branches causing the
// most destructive aliasing and the most mispredictions. Wall-clock-free
// and byte-stable, like the other telemetry records.
type TopKRecord struct {
	Type string `json:"type"`
	V    int    `json:"v"`

	Workload  string `json:"workload"`
	Input     string `json:"input"`
	Predictor string `json:"predictor"`

	// K is the sketch capacity the lists were tracked with.
	K int `json:"k"`
	// Sites is the number of distinct static branches tracked;
	// SitesDropped counts branches seen beyond the tracker's bound.
	Sites        int    `json:"sites"`
	SitesDropped uint64 `json:"sites_dropped,omitempty"`

	// BiasHist buckets tracked branches by how far their taken-bias falls
	// from perfect: bucket 0 holds perfectly biased branches (bias = 1),
	// bucket k branches with 2^−k ≤ 1−bias < 2^−(k−1). MispHist buckets
	// the per-branch misprediction rate the same way (bucket 0 = never
	// mispredicted). Trailing zero buckets are trimmed.
	BiasHist []uint64 `json:"bias_hist,omitempty"`
	MispHist []uint64 `json:"misp_hist,omitempty"`

	// TopDestructive ranks branches by destructive collisions caused while
	// they were predicted (empty unless the arm tracked collisions);
	// TopMispredicted ranks by mispredictions; TopLowConfidence ranks by
	// low-confidence predictions (empty unless confidence telemetry was on).
	TopDestructive   []BranchCount `json:"top_destructive,omitempty"`
	TopMispredicted  []BranchCount `json:"top_mispredicted,omitempty"`
	TopLowConfidence []BranchCount `json:"top_low_confidence,omitempty"`
}

// Key returns the record's (workload, input, predictor) identity, shared by
// the telemetry record types for grouping.
func (r *IntervalRecord) Key() string   { return r.Workload + "/" + r.Input + "/" + r.Predictor }
func (r *TableStatsRecord) Key() string { return r.Workload + "/" + r.Input + "/" + r.Predictor }
func (r *TopKRecord) Key() string       { return r.Workload + "/" + r.Input + "/" + r.Predictor }
func (r *TaggedTableStatsRecord) Key() string {
	return r.Workload + "/" + r.Input + "/" + r.Predictor
}
func (r *ConfidenceRecord) Key() string { return r.Workload + "/" + r.Input + "/" + r.Predictor }

// SchemaError reports a journal line whose record type or schema version
// this reader does not understand. The fields name exactly what was found;
// readers fail loudly rather than misparse foreign records.
type SchemaError struct {
	// Line is the 1-based journal line number.
	Line int
	// Type is the record's declared type ("" when the field was absent).
	Type string
	// Version is the record's declared schema version.
	Version int
}

// Error implements error.
func (e *SchemaError) Error() string {
	return fmt.Sprintf("obs: journal line %d: unsupported record schema: type=%q v=%d (supported types: %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s; version %d)",
		e.Line, e.Type, e.Version, RecArm, RecInterval, RecTableStats, RecTopK, RecTaggedTableStats, RecConfidence, RecArmStart, RecProgress, RecDrops, RecJob, RecSpan, SchemaV1)
}

// Records is a parsed journal, split by record type. The live-only types
// (arm starts, progress, drops) never appear in journals this package
// writes, but a capture of the /events stream parses into the same struct.
type Records struct {
	Arms        []ArmRecord
	Intervals   []IntervalRecord
	TableStats  []TableStatsRecord
	TaggedStats []TaggedTableStatsRecord
	Confidence  []ConfidenceRecord
	TopK        []TopKRecord
	ArmStarts   []ArmStartRecord
	Progress    []ProgressRecord
	Drops       []DropsRecord
	Jobs        []JobRecord
	Spans       []SpanRecord
}

// Len returns the total record count.
func (r *Records) Len() int {
	return len(r.Arms) + len(r.Intervals) + len(r.TableStats) + len(r.TopK) +
		len(r.TaggedStats) + len(r.Confidence) +
		len(r.ArmStarts) + len(r.Progress) + len(r.Drops) + len(r.Jobs) +
		len(r.Spans)
}

// Add appends one decoded record (a DecodeRecord result) to its slice;
// unrecognized values are ignored. Streaming consumers — journal tailers,
// /events captures — accumulate with this.
func (r *Records) Add(rec any) { r.add(rec) }

// add appends one decoded record to its slice.
func (r *Records) add(rec any) {
	switch rec := rec.(type) {
	case *ArmRecord:
		r.Arms = append(r.Arms, *rec)
	case *IntervalRecord:
		r.Intervals = append(r.Intervals, *rec)
	case *TableStatsRecord:
		r.TableStats = append(r.TableStats, *rec)
	case *TaggedTableStatsRecord:
		r.TaggedStats = append(r.TaggedStats, *rec)
	case *ConfidenceRecord:
		r.Confidence = append(r.Confidence, *rec)
	case *TopKRecord:
		r.TopK = append(r.TopK, *rec)
	case *ArmStartRecord:
		r.ArmStarts = append(r.ArmStarts, *rec)
	case *ProgressRecord:
		r.Progress = append(r.Progress, *rec)
	case *DropsRecord:
		r.Drops = append(r.Drops, *rec)
	case *JobRecord:
		r.Jobs = append(r.Jobs, *rec)
	case *SpanRecord:
		r.Spans = append(r.Spans, *rec)
	}
}

// recordHead is the envelope every line is peeked through before decoding.
type recordHead struct {
	Type string `json:"type"`
	V    int    `json:"v"`
}

// DecodeRecord decodes one JSONL record line into its typed record — one of
// *ArmRecord, *IntervalRecord, *TableStatsRecord, *TaggedTableStatsRecord,
// *ConfidenceRecord, *TopKRecord,
// *ArmStartRecord, *ProgressRecord, *DropsRecord, *JobRecord or
// *SpanRecord. A line without a "type"
// field is an arm record (the pre-telemetry schema). An unknown record type
// or schema version fails with a *SchemaError (Line 0; batch readers stamp
// their own line numbers).
func DecodeRecord(data []byte) (any, error) {
	var head recordHead
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, err
	}
	// Version 0 is only legal on the implicit pre-telemetry arm schema.
	if head.V != SchemaV1 && !(head.Type == "" && head.V == 0) {
		return nil, &SchemaError{Type: head.Type, Version: head.V}
	}
	var rec any
	switch head.Type {
	case "", RecArm:
		rec = &ArmRecord{}
	case RecInterval:
		rec = &IntervalRecord{}
	case RecTableStats:
		rec = &TableStatsRecord{}
	case RecTaggedTableStats:
		rec = &TaggedTableStatsRecord{}
	case RecConfidence:
		rec = &ConfidenceRecord{}
	case RecTopK:
		rec = &TopKRecord{}
	case RecArmStart:
		rec = &ArmStartRecord{}
	case RecProgress:
		rec = &ProgressRecord{}
	case RecDrops:
		rec = &DropsRecord{}
	case RecJob:
		rec = &JobRecord{}
	case RecSpan:
		rec = &SpanRecord{}
	default:
		return nil, &SchemaError{Type: head.Type, Version: head.V}
	}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// ReadRecords parses a JSONL journal containing any mix of record types.
// Lines without a "type" field are arm records (the pre-telemetry schema).
// Blank lines are skipped; a malformed line, an unknown record type, or an
// unsupported schema version fails the whole read with its line number — a
// journal that doesn't parse is a bug, not a degradation. The one
// exception is a torn tail: an undecodable final line with no trailing
// newline is what a crashed writer leaves mid-record, so it is skipped and
// every complete record before it is returned — crash recovery must not
// wedge on the crash's own debris.
func ReadRecords(r io.Reader) (*Records, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	out := &Records{}
	line := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("obs: reading journal: %w", rerr)
		}
		line++
		torn := rerr == io.EOF && len(raw) > 0 // final line, no newline
		data := bytes.TrimSpace(raw)
		if len(data) > 0 {
			rec, err := DecodeRecord(data)
			switch {
			case err == nil:
				out.add(rec)
			case torn:
				// Truncated by a crash mid-append: drop it.
			default:
				var se *SchemaError
				if errors.As(err, &se) {
					se.Line = line
					return nil, se
				}
				return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
			}
		}
		if rerr == io.EOF {
			return out, nil
		}
	}
}

// ReadRecordsFile is ReadRecords over a file.
func ReadRecordsFile(path string) (*Records, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	defer f.Close()
	return ReadRecords(f)
}
