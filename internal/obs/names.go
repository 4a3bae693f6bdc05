package obs

// This file is the single registry of every name the observability layer
// puts on the wire: metric names (the M* constants published to the
// registry and served at /debug/vars) and journal record types (the Rec*
// constants stamped into JSONL records). Every constant declared here MUST
// also appear in the registered-names block below — names_test.go parses
// this package's source and fails on any M*/Rec* constant that is missing
// from the block, and on any duplicate name value. Keeping declaration and
// registration in one file makes a collision a compile-adjacent test
// failure instead of a silent journal ambiguity.

// Well-known metric names. Counters unless noted.
const (
	// MSimEvents counts dynamic branch events simulated across all runners.
	MSimEvents = "sim.events"
	// MSimMispredicts counts mispredictions across all runners.
	MSimMispredicts = "sim.mispredicts"

	// MReplayCaptures counts shared-stream captures (one per distinct
	// workload/input that executed).
	MReplayCaptures = "replay.captures"
	// MReplayReplays counts arms fed from a shared capture instead of
	// executing the workload.
	MReplayReplays = "replay.replays"
	// MReplayChunksCaptured counts encoded chunks sealed by captures.
	MReplayChunksCaptured = "replay.chunks_captured"
	// MReplayChunksSpilled counts sealed chunks that went to the spill file.
	MReplayChunksSpilled = "replay.chunks_spilled"
	// MReplayChunksReplayed counts chunk decodes performed by replaying arms.
	MReplayChunksReplayed = "replay.chunks_replayed"
	// MReplayChunksQuarantined counts chunks that failed checksum
	// verification and were quarantined aside instead of replayed.
	MReplayChunksQuarantined = "replay.chunks_quarantined"
	// MReplaySpillErrors counts spill-file write failures (ENOSPC, I/O
	// errors) that downgraded a capture to keeping chunks in memory.
	MReplaySpillErrors = "replay.spill_errors"
	// MReplayMemBytes (gauge) is the engine's current in-memory encoded
	// trace occupancy, in bytes.
	MReplayMemBytes = "replay.mem_bytes"
	// MReplayPoolWaiting (gauge) is the number of replays currently blocked
	// waiting for a worker-pool slot.
	MReplayPoolWaiting = "replay.pool_waiting"

	// MArmsStarted counts harness arms (profiles and runs) started.
	MArmsStarted = "experiment.arms_started"
	// MArmsDone counts harness arms finished successfully.
	MArmsDone = "experiment.arms_done"
	// MArmsFailed counts harness arms that ended in an error.
	MArmsFailed = "experiment.arms_failed"
	// MArmsRunning (gauge) is the number of arms currently in flight.
	MArmsRunning = "experiment.arms_running"
	// MRetries counts in-place re-attempts of transiently failed arms.
	MRetries = "experiment.retries"
	// MPanics counts arms that died of an isolated panic.
	MPanics = "experiment.panics"
	// MCheckpointHits counts arms satisfied from the on-disk checkpoint.
	MCheckpointHits = "experiment.checkpoint_hits"
	// MSingleflightHits counts arm requests coalesced onto an in-flight or
	// memoized computation instead of simulating again.
	MSingleflightHits = "experiment.singleflight_hits"

	// MFaultsInjected counts injected faults fired (test pipelines only).
	MFaultsInjected = "faults.injected"

	// MTelemetryIntervals counts interval time-series records sealed by
	// telemetry collectors across all arms.
	MTelemetryIntervals = "telemetry.intervals"
	// MTelemetryTableSamples counts predictor-table introspection samples
	// taken at interval boundaries.
	MTelemetryTableSamples = "telemetry.table_samples"
	// MTelemetryTopK counts per-branch top-K records emitted at arm end.
	MTelemetryTopK = "telemetry.topk_records"
	// MTelemetrySites (gauge) is the number of distinct static branches the
	// most recently sealed collector was tracking.
	MTelemetrySites = "telemetry.sites"
	// MTelemetrySitesDropped counts static branches that fell off the
	// bounded per-branch tracker (the site cap was reached).
	MTelemetrySitesDropped = "telemetry.sites_dropped"
	// MTelemetryTaggedSamples counts tagged-bank introspection samples taken
	// at interval boundaries (tage/perceptron table stats).
	MTelemetryTaggedSamples = "telemetry.tagged_samples"
	// MTelemetryConfidence counts per-interval confidence records sealed by
	// telemetry collectors.
	MTelemetryConfidence = "telemetry.confidence_records"

	// MServeJobsSubmitted counts sweep jobs accepted by the serve daemon.
	MServeJobsSubmitted = "serve.jobs_submitted"
	// MServeJobsRejected counts job submissions refused by admission
	// control (tenant quota, arm quota, draining).
	MServeJobsRejected = "serve.jobs_rejected"
	// MServeJobsDone counts jobs that finished with every arm successful.
	MServeJobsDone = "serve.jobs_done"
	// MServeJobsFailed counts jobs that finished with at least one failed arm.
	MServeJobsFailed = "serve.jobs_failed"
	// MServeJobsCancelled counts jobs cancelled by a client or by drain.
	MServeJobsCancelled = "serve.jobs_cancelled"
	// MServeJobsRunning (gauge) is the number of jobs currently in flight.
	MServeJobsRunning = "serve.jobs_running"
	// MServeArmsDone counts job arms completed successfully (including
	// arms satisfied by the shared caches — the daemon's unit of progress).
	MServeArmsDone = "serve.arms_done"
	// MServeArmsFailed counts job arms that ended in an error.
	MServeArmsFailed = "serve.arms_failed"
	// MServeArmsPending (gauge) is the number of expanded arms admitted but
	// not yet finished, across all jobs.
	MServeArmsPending = "serve.arms_pending"

	// MServeJobLatency (histogram) is submit-to-terminal job latency.
	MServeJobLatency = "serve.job_latency"
	// MServeQueueWait (histogram) is how long admitted arms waited for a
	// worker slot before starting.
	MServeQueueWait = "serve.queue_wait"

	// MTenantJobs counts jobs accepted, per tenant.
	MTenantJobs = "serve.tenant.jobs"
	// MTenantArmsRun counts job arms completed (any source), per tenant.
	MTenantArmsRun = "serve.tenant.arms_run"
	// MTenantBranches counts dynamic branches simulated for a tenant's
	// completed arms.
	MTenantBranches = "serve.tenant.branches"
	// MTenantArmsSaved counts a tenant's arms satisfied from the shared
	// caches (checkpoint or singleflight) instead of fresh simulation —
	// capture-cache hits the tenant did not pay for.
	MTenantArmsSaved = "serve.tenant.arms_saved"
	// MTenantShed counts job submissions refused by admission control, per
	// tenant.
	MTenantShed = "serve.tenant.shed"
	// MTenantJobLatency (histogram vec) is per-tenant job latency.
	MTenantJobLatency = "serve.tenant.job_latency"

	// MArmWall (histogram) is total arm wall time across harness arms.
	MArmWall = "experiment.arm_wall"
	// MPhaseCapture .. MPhaseSeal (histograms) are per-phase arm durations.
	MPhaseCapture    = "experiment.phase.capture"
	MPhaseReplay     = "experiment.phase.replay"
	MPhaseSimulate   = "experiment.phase.simulate"
	MPhaseSelect     = "experiment.phase.select"
	MPhaseCheckpoint = "experiment.phase.checkpoint"
	MPhaseSeal       = "experiment.phase.seal"

	// MReplayChunkDecode (histogram) is per-chunk decode latency on the
	// replay path.
	MReplayChunkDecode = "replay.chunk_decode"

	// MBusSSELag (histogram) is per-frame SSE delivery time (serialize +
	// flush to the client connection).
	MBusSSELag = "bus.sse_lag"

	// MSpansPublished counts trace spans published to the live bus.
	MSpansPublished = "trace.spans"

	// MBusPublished counts records published to the live event bus.
	MBusPublished = "bus.published"
	// MBusDropped counts frames discarded across all bus subscribers by the
	// drop-oldest backpressure policy (slow or stalled consumers).
	MBusDropped = "bus.dropped"
	// MBusSubscribers (gauge) is the number of live bus subscribers.
	MBusSubscribers = "bus.subscribers"
)

// Journal record types. Every JSONL line carries a "type" field holding one
// of these (a missing field means RecArm, for journals written before the
// telemetry schema) plus a "v" schema version; see records.go.
const (
	// RecArm is one completed sweep arm (ArmRecord).
	RecArm = "arm"
	// RecInterval is one interval of an arm's simulation-domain time series
	// (IntervalRecord).
	RecInterval = "interval"
	// RecTableStats is one predictor-table introspection sample
	// (TableStatsRecord).
	RecTableStats = "table_stats"
	// RecTopK is one arm's per-branch summary: histograms plus the top-K
	// worst offenders (TopKRecord).
	RecTopK = "topk"
	// RecTaggedTableStats is one tagged-bank introspection sample from a
	// tagged/neural predictor (TaggedTableStatsRecord).
	RecTaggedTableStats = "tagged_table_stats"
	// RecConfidence is one interval of an arm's prediction-confidence time
	// series (ConfidenceRecord).
	RecConfidence = "confidence"
	// RecArmStart announces a span opening (ArmStartRecord). Live-only:
	// published to the event bus, never journaled.
	RecArmStart = "arm_start"
	// RecProgress is a periodic pipeline status snapshot (ProgressRecord).
	// Live-only.
	RecProgress = "progress"
	// RecDrops reports a subscriber's cumulative dropped-frame count
	// (DropsRecord). Live-only.
	RecDrops = "drops"
	// RecJob is one sweep job's lifecycle snapshot from the serve daemon
	// (JobRecord). Live-only: published to the event bus on every state
	// change and arm completion, never journaled — the journal's unit stays
	// the arm, so daemon journals are byte-identical to offline runs of the
	// same arms.
	RecJob = "job"
	// RecSpan is one closed trace span (SpanRecord). Live-only: published
	// to the event bus when a span ends, never journaled — tracing must
	// leave journal bytes identical.
	RecSpan = "span"
)

// NameKind classifies a registered name.
type NameKind string

// Registered name kinds.
const (
	KindCounter NameKind = "counter"
	KindGauge   NameKind = "gauge"
	KindRecord  NameKind = "record"
	// KindHistogram is an exponential-bucket latency distribution
	// (Histogram), rendered as _bucket/_sum/_count series.
	KindHistogram NameKind = "histogram"
	// KindCounterVec / KindHistogramVec are per-tenant metric families:
	// one child series per tenant label value.
	KindCounterVec   NameKind = "counter_vec"
	KindHistogramVec NameKind = "histogram_vec"
)

// RegisteredName is one entry of the name registry.
type RegisteredName struct {
	Name string
	Kind NameKind
}

// registeredNames is the single authoritative list. Order groups by
// subsystem; names_test.go enforces completeness and uniqueness.
var registeredNames = []RegisteredName{
	{MSimEvents, KindCounter},
	{MSimMispredicts, KindCounter},
	{MReplayCaptures, KindCounter},
	{MReplayReplays, KindCounter},
	{MReplayChunksCaptured, KindCounter},
	{MReplayChunksSpilled, KindCounter},
	{MReplayChunksReplayed, KindCounter},
	{MReplayChunksQuarantined, KindCounter},
	{MReplaySpillErrors, KindCounter},
	{MReplayMemBytes, KindGauge},
	{MReplayPoolWaiting, KindGauge},
	{MArmsStarted, KindCounter},
	{MArmsDone, KindCounter},
	{MArmsFailed, KindCounter},
	{MArmsRunning, KindGauge},
	{MRetries, KindCounter},
	{MPanics, KindCounter},
	{MCheckpointHits, KindCounter},
	{MSingleflightHits, KindCounter},
	{MFaultsInjected, KindCounter},
	{MTelemetryIntervals, KindCounter},
	{MTelemetryTableSamples, KindCounter},
	{MTelemetryTopK, KindCounter},
	{MTelemetrySites, KindGauge},
	{MTelemetrySitesDropped, KindCounter},
	{MTelemetryTaggedSamples, KindCounter},
	{MTelemetryConfidence, KindCounter},
	{MServeJobsSubmitted, KindCounter},
	{MServeJobsRejected, KindCounter},
	{MServeJobsDone, KindCounter},
	{MServeJobsFailed, KindCounter},
	{MServeJobsCancelled, KindCounter},
	{MServeJobsRunning, KindGauge},
	{MServeArmsDone, KindCounter},
	{MServeArmsFailed, KindCounter},
	{MServeArmsPending, KindGauge},
	{MServeJobLatency, KindHistogram},
	{MServeQueueWait, KindHistogram},
	{MTenantJobs, KindCounterVec},
	{MTenantArmsRun, KindCounterVec},
	{MTenantBranches, KindCounterVec},
	{MTenantArmsSaved, KindCounterVec},
	{MTenantShed, KindCounterVec},
	{MTenantJobLatency, KindHistogramVec},
	{MArmWall, KindHistogram},
	{MPhaseCapture, KindHistogram},
	{MPhaseReplay, KindHistogram},
	{MPhaseSimulate, KindHistogram},
	{MPhaseSelect, KindHistogram},
	{MPhaseCheckpoint, KindHistogram},
	{MPhaseSeal, KindHistogram},
	{MReplayChunkDecode, KindHistogram},
	{MBusSSELag, KindHistogram},
	{MSpansPublished, KindCounter},
	{MBusPublished, KindCounter},
	{MBusDropped, KindCounter},
	{MBusSubscribers, KindGauge},
	{RecArm, KindRecord},
	{RecInterval, KindRecord},
	{RecTableStats, KindRecord},
	{RecTopK, KindRecord},
	{RecTaggedTableStats, KindRecord},
	{RecConfidence, KindRecord},
	{RecArmStart, KindRecord},
	{RecProgress, KindRecord},
	{RecDrops, KindRecord},
	{RecJob, KindRecord},
	{RecSpan, KindRecord},
}

// RegisteredNames returns a copy of the registry: every well-known metric
// name and journal record type this package emits.
func RegisteredNames() []RegisteredName {
	out := make([]RegisteredName, len(registeredNames))
	copy(out, registeredNames)
	return out
}
