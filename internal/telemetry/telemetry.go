// Package telemetry collects simulation-domain observability: interval
// time-series of the simulator's metrics, predictor-table introspection
// samples, and streaming per-branch statistics with bounded worst-offender
// sketches. It is the layer that turns the paper's in-predictor analyses —
// destructive vs constructive aliasing, per-branch bias vs accuracy, PHT
// pressure — into journal records.
//
// A Collector is bound to exactly one simulation arm (one runner). It is
// fed by the sim runner, per event (Branch, Ops) or a scored span of a
// block at a time (Block, cut with Span), seals an interval record every
// Config.Interval instructions, and buffers everything until Finish, when
// the records flow out through the obs journal in one deterministic batch.
// Records carry no wall-clock fields, so a given (workload, input,
// predictor) triple journals byte-identical telemetry on every run, at any
// replay worker count.
package telemetry

import (
	"math"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
)

// Default configuration values.
const (
	// DefaultInterval is the interval length in instructions (the tentpole's
	// "every N instructions", N defaulting to 100K).
	DefaultInterval = 100_000
	// DefaultTopK is the worst-offender list capacity.
	DefaultTopK = 16
	// DefaultSiteCap bounds the per-branch site tracker.
	DefaultSiteCap = 1 << 15
	// maxHistBucket caps the log-bucketed rate histograms.
	maxHistBucket = 32
)

// Config selects what a Collector gathers. The zero Config is fully
// disabled; see Enabled.
type Config struct {
	// Interval is the time-series interval length in instructions. 0 means
	// disabled unless another feature is on, in which case DefaultInterval
	// applies (table samples and top-K both piggyback on interval
	// boundaries).
	Interval uint64
	// TableStats samples predictor-table introspection (occupancy, counter
	// distribution, entropy, sharing degree) at interval boundaries. When
	// the predictor has tagged/neural banks (tage, perceptron) the same flag
	// also samples their per-bank tagged statistics.
	TableStats bool
	// Confidence collects the per-prediction confidence time series: one
	// ConfidenceRecord per interval plus the low-confidence top-K list, for
	// predictors that grade their own predictions (tage, perceptron).
	Confidence bool
	// TopK is the worst-offender list capacity; 0 disables the per-branch
	// tracker, negative means DefaultTopK.
	TopK int
	// SiteCap bounds the per-branch site map (0 means DefaultSiteCap). The
	// cap trades per-branch histogram completeness for bounded memory;
	// branches beyond it are counted in SitesDropped.
	SiteCap int
}

// Enabled reports whether the configuration collects anything at all.
func (c Config) Enabled() bool {
	return c.Interval > 0 || c.TableStats || c.Confidence || c.TopK != 0
}

// withDefaults resolves the zero values of an enabled configuration.
func (c Config) withDefaults() Config {
	if !c.Enabled() {
		return c
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.TopK < 0 {
		c.TopK = DefaultTopK
	}
	if c.SiteCap <= 0 {
		c.SiteCap = DefaultSiteCap
	}
	return c
}

// Collector accumulates one arm's telemetry. Not safe for concurrent use —
// it belongs to the single goroutine driving the runner, like the runner
// itself. A nil *Collector is fully disabled; every method no-ops.
type Collector struct {
	cfg Config
	o   *obs.Observer

	workload, input, pred string
	tracked               bool // collision tracking on
	in                    predictor.Introspector
	tin                   predictor.TaggedIntrospector
	ce                    predictor.ConfidenceEstimator

	// Cumulative stream counters (instructions includes branches).
	instr, branches, taken uint64
	misp, col, cons, dest  uint64
	next                   uint64 // next interval boundary
	seq                    int

	// Cumulative confidence counters (ce bound): low-confidence predictions
	// and the low/high split of mispredictions, plus the score histogram
	// (eight equal-width buckets over [0,1]).
	confLow, confLowMisp, confHighMisp uint64
	scoreHist                          [8]uint64

	// prev* snapshot the cumulative counters at the last sealed boundary.
	pInstr, pBranches, pTaken  uint64
	pMisp, pCol, pCons, pDest  uint64
	pConfLow, pConfLM, pConfHM uint64
	pScoreHist                 [8]uint64

	// Per-branch tracking (TopK != 0).
	sites        *siteTable
	sitesDropped uint64
	topDest      *spaceSaving
	topMisp      *spaceSaving
	topLow       *spaceSaving // nil unless confidence telemetry bound

	// Buffered records, emitted at Finish.
	intervals   []obs.IntervalRecord
	tableStats  []obs.TableStatsRecord
	taggedStats []obs.TaggedTableStatsRecord
	confidence  []obs.ConfidenceRecord
	topk        []obs.TopKRecord // 0 or 1 entries, built by Finish

	finished bool
}

// New builds a Collector for one arm. Returns nil — the disabled collector —
// when cfg collects nothing, so callers thread the result unconditionally.
// o receives the records at Finish and live counter updates at each interval
// seal; a nil observer keeps the collector counting (the records are still
// retrievable from Finish's return) but journals nothing.
func New(cfg Config, o *obs.Observer) *Collector {
	cfg = cfg.withDefaults()
	if !cfg.Enabled() {
		return nil
	}
	c := &Collector{cfg: cfg, o: o, next: cfg.Interval}
	if cfg.TopK != 0 {
		c.sites = newSiteTable(cfg.SiteCap)
		c.topDest = newSpaceSaving(cfg.TopK)
		c.topMisp = newSpaceSaving(cfg.TopK)
	}
	return c
}

// Config returns the collector's resolved configuration (zero for nil).
func (c *Collector) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Bind attaches the collector to its arm: labels for the records, the
// predictor (introspected at interval boundaries when the configuration asks
// for table stats and the predictor supports it), and whether the arm
// tracks collisions. Call once, before the stream starts. Safe on nil.
func (c *Collector) Bind(p predictor.Predictor, workload, input, pred string, tracked bool) {
	if c == nil {
		return
	}
	c.workload, c.input, c.pred, c.tracked = workload, input, pred, tracked
	if c.cfg.TableStats {
		if in, ok := p.(predictor.Introspector); ok {
			in.EnableTableStats()
			c.in = in
		}
		if tin, ok := p.(predictor.TaggedIntrospector); ok {
			tin.EnableTableStats()
			// Wrappers pass IntrospectTagged through and return nil banks
			// when the inner predictor has none; only wire the sampler when
			// there is something to sample (the bank set is structural, so a
			// cold predictor still reports its banks).
			if len(tin.IntrospectTagged()) > 0 {
				c.tin = tin
			}
		}
	}
	if c.cfg.Confidence {
		if ce, ok := predictor.ConfidenceEstimatorOf(p); ok {
			c.ce = ce
			if c.sites != nil {
				c.topLow = newSpaceSaving(c.cfg.TopK)
			}
		}
	}
}

// TableSampling reports whether the collector introspects predictor tables
// at interval boundaries (TableStats configured and the bound predictor
// supports it). A boundary seal then snapshots the live tables, so a caller
// running the predictor ahead of the collector must stop at each seal: Span
// says where. Safe on nil.
func (c *Collector) TableSampling() bool { return c != nil && (c.in != nil || c.tin != nil) }

// ConfidenceSampling reports whether the collector grades every prediction
// (Confidence configured and the bound predictor estimates it). Branch then
// queries the predictor's LastConfidence, and Block reads the per-event
// grades from BlockMetrics.Conf, which the caller must arm. Safe on nil.
func (c *Collector) ConfidenceSampling() bool { return c != nil && c.ce != nil }

// Branch feeds one dynamic branch: its resolved direction, whether the
// prediction was correct, and whether the lookup collided (false when the
// arm does not track collisions). When the collector grades predictions it
// reads the grade from the bound predictor, so call it right after the
// branch's Predict/Update. Safe on nil.
func (c *Collector) Branch(pc uint64, taken, correct, collided bool) {
	if c == nil {
		return
	}
	var conf predictor.Confidence
	if c.ce != nil {
		conf = c.ce.LastConfidence()
	}
	c.branch(pc, taken, correct, collided, conf)
}

// Span returns how many of the next n branches a caller may run through the
// predictor before feeding them, so that no seal falls inside the span: the
// count up to and including the first branch after which the collector
// seals, on the branch itself or within the straight-line run after[i] that
// follows branch i. n when no seal falls in the block, and always n unless
// the collector samples tables (the only seal work that reads predictor
// state). Safe on nil.
func (c *Collector) Span(n int, after []uint64) int {
	if !c.TableSampling() {
		return n
	}
	rem := c.next - c.instr // ≥ 1: every charge that reaches c.next seals
	for i := 0; i < n; i++ {
		if rem--; rem == 0 {
			return i + 1
		}
		if i < len(after) {
			if after[i] >= rem {
				return i + 1
			}
			rem -= after[i]
		}
	}
	return n
}

// Block feeds a run of branches the predictor has already scored:
// pcs[i]/taken[i] with out.Correct[i], out.Collided[i] (raw, gated here by
// the arm's collision tracking) and, when ConfidenceSampling, out.Conf[i];
// after[i], for i < len(after), is the straight-line run charged after
// branch i. Records are identical to calling Branch and Ops per event. When
// the collector samples tables, the caller must cut blocks with Span. Safe
// on nil.
func (c *Collector) Block(pcs []uint64, taken []bool, after []uint64, out *predictor.BlockMetrics) {
	if c == nil {
		return
	}
	n := len(pcs)
	taken, correct, collided := taken[:n], out.Correct[:n], out.Collided[:n]
	var conf []predictor.Confidence
	if c.ce != nil {
		conf = out.Conf[:n]
	}
	for i, pc := range pcs {
		var cf predictor.Confidence
		if conf != nil {
			cf = conf[i]
		}
		c.branch(pc, taken[i], correct[i], c.tracked && collided[i], cf)
		if i < len(after) && after[i] != 0 {
			c.Ops(after[i])
		}
	}
}

// branch is Branch with the prediction's confidence grade supplied. The
// stream counters advance by 0/1 arithmetic rather than control flow: the
// flags are the simulated branch's own outcomes, which the host CPU
// mispredicts.
func (c *Collector) branch(pc uint64, taken, correct, collided bool, conf predictor.Confidence) {
	tk, bad, col := b2u(taken), b2u(!correct), b2u(collided)
	c.instr++
	c.branches++
	c.taken += tk
	c.misp += bad
	c.col += col
	c.cons += col &^ bad
	c.dest += col & bad
	low := false
	if c.ce != nil {
		low = conf.Low
		lo := b2u(low)
		c.confLow += lo
		c.confLowMisp += lo & bad
		c.confHighMisp += bad &^ lo
		c.scoreHist[min(max(int(conf.Score*8), 0), 7)]++
	}
	if c.sites != nil {
		s := c.sites.claim(pc)
		if s != nil {
			s.execs++
			s.taken += tk
			s.misp += bad
			s.lowconf += b2u(low)
		} else {
			c.sitesDropped++
		}
		if !correct {
			// Only tracked sites enter the misprediction list; destructive
			// collisions count for every site.
			if s != nil {
				c.topMisp.Add(pc)
			}
			if collided {
				c.topDest.Add(pc)
			}
		}
		if low && c.topLow != nil {
			c.topLow.Add(pc)
		}
	}
	if c.instr >= c.next {
		c.seal()
	}
}

// b2u converts a bool to 0/1 (lowered branch-free).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Ops charges n straight-line instructions. A run that crosses one or more
// interval boundaries seals exactly at each boundary — the records are the
// same as if the run were charged one instruction at a time, so seal points
// cannot depend on how the recording pipeline batches straight-line runs
// (the raw workload stream, the capture tee, decoded chunks and the block
// kernels all coalesce Ops differently). Safe on nil.
func (c *Collector) Ops(n uint64) {
	if c == nil {
		return
	}
	c.instr += n
	for c.instr >= c.next {
		total := c.instr
		c.instr = c.next
		c.seal()
		c.instr = total
	}
}

// seal closes the current interval: one IntervalRecord with the deltas since
// the previous boundary and, when enabled, one table-introspection sample.
// Ops clamps c.instr to the boundary before calling, so every mid-stream
// seal lands on an exact Interval multiple; only the final partial seal from
// Finish can land between boundaries.
func (c *Collector) seal() {
	rec := obs.IntervalRecord{
		Workload: c.workload, Input: c.input, Predictor: c.pred,
		Seq: c.seq, Instructions: c.instr,
		DInstructions: c.instr - c.pInstr,
		DBranches:     c.branches - c.pBranches,
		DTaken:        c.taken - c.pTaken,
		DMispredicts:  c.misp - c.pMisp,
	}
	if c.tracked {
		rec.CollisionsTracked = true
		rec.DCollisions = c.col - c.pCol
		rec.DConstructive = c.cons - c.pCons
		rec.DDestructive = c.dest - c.pDest
	}
	c.intervals = append(c.intervals, rec)
	c.o.Counter(obs.MTelemetryIntervals).Add(1)
	// Live tap: mirror a copy to the event bus now, at seal time. The
	// buffered copy above still flows through the journal at Finish, so
	// journal bytes are identical with or without live subscribers.
	live := rec
	c.o.Publish(&live)

	if c.in != nil {
		tables := c.in.Introspect()
		ts := obs.TableStatsRecord{
			Workload: c.workload, Input: c.input, Predictor: c.pred,
			Seq: c.seq, Instructions: c.instr,
			Tables: make([]obs.TableStat, 0, len(tables)),
		}
		for _, t := range tables {
			ts.Tables = append(ts.Tables, obs.TableStat{
				Name:        t.Name,
				Entries:     t.Entries,
				Occupied:    t.Occupied,
				Counters:    t.Counters,
				Entropy:     t.Entropy,
				SharingHist: t.SharingHist,
			})
		}
		c.tableStats = append(c.tableStats, ts)
		c.o.Counter(obs.MTelemetryTableSamples).Add(1)
		liveTS := ts
		c.o.Publish(&liveTS)
	}

	if c.tin != nil {
		banks := c.tin.IntrospectTagged()
		ts := obs.TaggedTableStatsRecord{
			Workload: c.workload, Input: c.input, Predictor: c.pred,
			Seq: c.seq, Instructions: c.instr,
			Banks: make([]obs.TaggedBankStat, 0, len(banks)),
		}
		for _, b := range banks {
			ts.Banks = append(ts.Banks, obs.TaggedBankStat{
				Name:       b.Name,
				Entries:    b.Entries,
				HistLen:    b.HistLen,
				TagBits:    b.TagBits,
				Occupied:   b.Occupied,
				Ctr:        b.Ctr,
				Useful:     b.Useful,
				Saturated:  b.Saturated,
				Margin:     b.Margin,
				Hits:       b.Hits,
				Misses:     b.Misses,
				Provider:   b.Provider,
				AltUsed:    b.AltUsed,
				Allocs:     b.Allocs,
				AllocFails: b.AllocFails,
			})
		}
		c.taggedStats = append(c.taggedStats, ts)
		c.o.Counter(obs.MTelemetryTaggedSamples).Add(1)
		liveTS := ts
		c.o.Publish(&liveTS)
	}

	if c.ce != nil {
		cr := obs.ConfidenceRecord{
			Workload: c.workload, Input: c.input, Predictor: c.pred,
			Seq: c.seq, Instructions: c.instr,
			DBranches:        c.branches - c.pBranches,
			DLow:             c.confLow - c.pConfLow,
			DLowMispredicts:  c.confLowMisp - c.pConfLM,
			DHighMispredicts: c.confHighMisp - c.pConfHM,
		}
		hist := make([]uint64, len(c.scoreHist))
		n := 0
		for i := range c.scoreHist {
			hist[i] = c.scoreHist[i] - c.pScoreHist[i]
			if hist[i] != 0 {
				n = i + 1
			}
		}
		if n > 0 {
			cr.ScoreHist = hist[:n]
		}
		c.confidence = append(c.confidence, cr)
		c.o.Counter(obs.MTelemetryConfidence).Add(1)
		liveCR := cr
		c.o.Publish(&liveCR)
	}

	c.pInstr, c.pBranches, c.pTaken = c.instr, c.branches, c.taken
	c.pMisp, c.pCol, c.pCons, c.pDest = c.misp, c.col, c.cons, c.dest
	c.pConfLow, c.pConfLM, c.pConfHM = c.confLow, c.confLowMisp, c.confHighMisp
	c.pScoreHist = c.scoreHist
	c.seq++
	c.next = (c.instr/c.cfg.Interval + 1) * c.cfg.Interval
}

// Records is everything a collector gathered, as returned by Finish.
type Records struct {
	Intervals   []obs.IntervalRecord
	TableStats  []obs.TableStatsRecord
	TaggedStats []obs.TaggedTableStatsRecord
	Confidence  []obs.ConfidenceRecord
	TopK        *obs.TopKRecord // nil when per-branch tracking is off
}

// Finish seals the final partial interval, builds the per-branch top-K
// record, emits everything to the bound observer's journal, and returns the
// records. Idempotent — later calls return the same records without
// re-emitting — and safe on nil (returns the zero Records).
func (c *Collector) Finish() Records {
	if c == nil {
		return Records{}
	}
	if !c.finished {
		c.finished = true
		if c.instr > c.pInstr || c.seq == 0 {
			c.seal()
		}
		for i := range c.intervals {
			c.o.Emit(&c.intervals[i])
		}
		for i := range c.tableStats {
			c.o.Emit(&c.tableStats[i])
		}
		for i := range c.taggedStats {
			c.o.Emit(&c.taggedStats[i])
		}
		for i := range c.confidence {
			c.o.Emit(&c.confidence[i])
		}
		if c.sites != nil {
			c.buildTopK()
		}
	}
	var top *obs.TopKRecord
	if len(c.topk) == 1 {
		top = &c.topk[0]
	}
	return Records{
		Intervals: c.intervals, TableStats: c.tableStats,
		TaggedStats: c.taggedStats, Confidence: c.confidence, TopK: top,
	}
}

// buildTopK assembles and emits the TopKRecord.
func (c *Collector) buildTopK() {
	rec := obs.TopKRecord{
		Workload: c.workload, Input: c.input, Predictor: c.pred,
		K:            c.cfg.TopK,
		Sites:        c.sites.Len(),
		SitesDropped: c.sitesDropped,
	}
	biasHist := make([]uint64, maxHistBucket+1)
	mispHist := make([]uint64, maxHistBucket+1)
	maxBias, maxMisp := 0, 0
	c.sites.Range(func(_ uint64, s *site) {
		if s.execs == 0 {
			return
		}
		bias := float64(s.taken) / float64(s.execs)
		if bias < 0.5 {
			bias = 1 - bias
		}
		b := rateBucket(1 - bias)
		biasHist[b]++
		if b > maxBias {
			maxBias = b
		}
		m := rateBucket(float64(s.misp) / float64(s.execs))
		mispHist[m]++
		if m > maxMisp {
			maxMisp = m
		}
	})
	if c.sites.Len() > 0 {
		rec.BiasHist = biasHist[:maxBias+1]
		rec.MispHist = mispHist[:maxMisp+1]
	}
	rec.TopDestructive = c.branchCounts(c.topDest, false)
	rec.TopMispredicted = c.branchCounts(c.topMisp, false)
	if c.topLow != nil {
		rec.TopLowConfidence = c.branchCounts(c.topLow, true)
	}
	c.topk = append(c.topk, rec)
	c.o.Emit(&c.topk[0])
	liveTop := rec
	c.o.Publish(&liveTop)
	c.o.Counter(obs.MTelemetryTopK).Add(1)
	c.o.Gauge(obs.MTelemetrySites).Set(int64(c.sites.Len()))
	c.o.Counter(obs.MTelemetrySitesDropped).Add(c.sitesDropped)
}

// branchCounts converts a sketch's top list, joining each entry with its
// site profile when the site tracker still holds it. withLowRate adds the
// per-site low-confidence fraction (the TopLowConfidence list).
func (c *Collector) branchCounts(s *spaceSaving, withLowRate bool) []obs.BranchCount {
	top := s.Top(c.cfg.TopK)
	if len(top) == 0 {
		return nil
	}
	out := make([]obs.BranchCount, 0, len(top))
	for _, t := range top {
		bc := obs.BranchCount{PC: t.PC, Count: t.Count, MaxError: t.MaxError}
		if st := c.sites.Get(t.PC); st != nil && st.execs > 0 {
			bc.Execs = st.execs
			bias := float64(st.taken) / float64(st.execs)
			if bias < 0.5 {
				bias = 1 - bias
			}
			bc.Bias = bias
			bc.MispRate = float64(st.misp) / float64(st.execs)
			if withLowRate {
				bc.LowRate = float64(st.lowconf) / float64(st.execs)
			}
		}
		out = append(out, bc)
	}
	return out
}

// rateBucket maps a rate f ∈ [0,1] to its log₂ bucket: 0 for f = 0 (the
// perfect case), otherwise the bucket b ≥ 1 with 2⁻ᵇ ≤ f < 2⁻⁽ᵇ⁻¹⁾, capped
// at maxHistBucket.
func rateBucket(f float64) int {
	if f <= 0 {
		return 0
	}
	b := int(math.Ceil(-math.Log2(f)))
	if b < 1 {
		b = 1
	}
	if b > maxHistBucket {
		b = maxHistBucket
	}
	return b
}
