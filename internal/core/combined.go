package core

import (
	"fmt"

	"branchsim/internal/predictor"
)

// ShiftPolicy controls what a Combined predictor does to the dynamic
// predictor's global history register when a branch is predicted statically.
type ShiftPolicy int

const (
	// NoShift leaves the history untouched: statically predicted branches
	// vanish from the dynamic predictor entirely. This is the paper's
	// default configuration ("unless otherwise noted, we did not shift").
	NoShift ShiftPolicy = iota
	// ShiftOutcome shifts the branch's resolved direction into the history
	// register without training any table — the paper's "Shift" variants
	// in Table 4, selectable per application via an architectural flag.
	ShiftOutcome
	// ShiftStatic shifts the static prediction instead of the outcome. An
	// ablation point: it preserves history *length* alignment but feeds
	// the correlation mechanism a constant, showing why the paper shifts
	// real outcomes.
	ShiftStatic
)

// String implements fmt.Stringer.
func (s ShiftPolicy) String() string {
	switch s {
	case NoShift:
		return "noshift"
	case ShiftOutcome:
		return "shift"
	case ShiftStatic:
		return "shiftstatic"
	default:
		return fmt.Sprintf("ShiftPolicy(%d)", int(s))
	}
}

// CombinedStats counts how the static and dynamic components divided the
// work during a run.
type CombinedStats struct {
	StaticExecs   uint64 // dynamic executions predicted statically
	StaticMispred uint64 // of those, mispredicted
	DynamicExecs  uint64 // dynamic executions left to the dynamic predictor
}

// Combined implements the paper's static+dynamic scheme around any dynamic
// predictor. Branches present in the hint database take their fixed static
// prediction and never touch the dynamic predictor's tables; all other
// branches flow through unchanged. Depending on the ShiftPolicy, outcomes of
// hinted branches may still be shifted into the dynamic global history.
//
// Combined itself satisfies predictor.Predictor (and Collider /
// HistoryShifter when the wrapped predictor does), so it can be nested,
// swept and measured exactly like a bare dynamic predictor.
type Combined struct {
	dyn    predictor.Predictor
	hints  *HintDB
	shift  ShiftPolicy
	stats  CombinedStats
	shiftr predictor.HistoryShifter      // nil if dyn keeps no global history
	ce     predictor.ConfidenceEstimator // nil if dyn cannot grade itself
	col    predictor.Collider            // nil if dyn cannot track collisions

	lastStatic bool
	lastTaken  bool
}

// NewCombined wraps dyn with the hint database and shift policy. A nil or
// empty hints database yields a transparent wrapper (pure dynamic
// behaviour), which the experiments use as their baseline arm.
func NewCombined(dyn predictor.Predictor, hints *HintDB, shift ShiftPolicy) *Combined {
	c := &Combined{dyn: dyn, hints: hints, shift: shift}
	if hs, ok := dyn.(predictor.HistoryShifter); ok {
		c.shiftr = hs
	}
	if ce, ok := predictor.ConfidenceEstimatorOf(dyn); ok {
		c.ce = ce
	}
	c.col, _ = dyn.(predictor.Collider)
	return c
}

// Name implements predictor.Predictor.
func (c *Combined) Name() string {
	scheme := "none"
	if c.hints != nil && c.hints.Len() > 0 {
		scheme = c.hints.Scheme
	}
	if c.shift == NoShift {
		return fmt.Sprintf("%s+%s", c.dyn.Name(), scheme)
	}
	return fmt.Sprintf("%s+%s(%s)", c.dyn.Name(), scheme, c.shift)
}

// SizeBits implements predictor.Predictor. Hint bits live in the
// instructions (as on IA-64), not in predictor storage, so only the dynamic
// component is charged.
func (c *Combined) SizeBits() int { return c.dyn.SizeBits() }

// Dynamic returns the wrapped dynamic predictor.
func (c *Combined) Dynamic() predictor.Predictor { return c.dyn }

// Stats returns the static/dynamic split observed so far.
func (c *Combined) Stats() CombinedStats { return c.stats }

// Predict implements predictor.Predictor.
func (c *Combined) Predict(pc uint64) bool {
	if c.hints != nil {
		if t, ok := c.hints.Lookup(pc); ok {
			c.lastStatic = true
			c.lastTaken = t
			c.stats.StaticExecs++
			return t
		}
	}
	c.lastStatic = false
	c.stats.DynamicExecs++
	return c.dyn.Predict(pc)
}

// Update implements predictor.Predictor.
func (c *Combined) Update(pc uint64, outcome bool) {
	if c.lastStatic {
		if c.lastTaken != outcome {
			c.stats.StaticMispred++
		}
		if c.shiftr != nil {
			switch c.shift {
			case ShiftOutcome:
				c.shiftr.ShiftHistory(outcome)
			case ShiftStatic:
				c.shiftr.ShiftHistory(c.lastTaken)
			}
		}
		return
	}
	c.dyn.Update(pc, outcome)
}

// Reset implements predictor.Predictor. Hints persist (they are encoded in
// the binary); dynamic state and statistics clear.
func (c *Combined) Reset() {
	c.dyn.Reset()
	c.stats = CombinedStats{}
	c.lastStatic = false
}

// Batched implements predictor.BatchProvider: whenever the dynamic
// component has a native kernel, the wrapper runs whole blocks through
// combinedBatch, with or without hints installed. Only a dynamic component
// without a kernel keeps the wrapper on the scalar path.
func (c *Combined) Batched() (predictor.BatchSim, bool) {
	k, native := predictor.Batch(c.dyn)
	if !native {
		return nil, false
	}
	return &combinedBatch{c: c, k: k}, true
}

// combinedBatch is the wrapper's block kernel. Hinted events are scored in
// place against their static direction; the others are gathered, in
// program order, into a sub-block for the dynamic component's kernel, and
// their per-event outputs scattered back. This is exact because the scalar
// path never calls the dynamic Predict/Update for a hinted branch and
// kernels are split-invariant: the dynamic component sees the same stream.
// Under ShiftOutcome/ShiftStatic the pending sub-block is flushed before
// each hinted branch's history shift, so the shift lands where the scalar
// path puts it.
type combinedBatch struct {
	c *Combined
	k predictor.BatchSim

	// Gather scratch, grown to the largest block seen: the dynamic events'
	// PCs and outcomes, their positions in the block (idx, only when a
	// per-event output is armed) and the sub-block's per-event outputs.
	pcs      []uint64
	taken    []bool
	idx      []int32
	correct  []bool
	collided []bool
	conf     []predictor.Confidence
}

// RunBlock implements predictor.BatchSim.
func (b *combinedBatch) RunBlock(pcs []uint64, taken []bool, out *predictor.BlockMetrics) {
	c := b.c
	n := len(pcs)
	if n == 0 {
		return
	}
	if c.hints.Len() == 0 {
		c.stats.DynamicExecs += uint64(n)
		b.k.RunBlock(pcs, taken, out)
		c.lastStatic = false
		return
	}
	taken = taken[:n]
	armed := out.Correct != nil || out.Collided != nil || out.Conf != nil
	b.grow(n, armed)
	dp, dt := b.pcs[:n], b.taken[:n]
	var idx []int32
	if armed {
		idx = b.idx[:n]
	}
	var sub predictor.BlockMetrics
	shift := c.shiftr != nil && c.shift != NoShift
	hints := &c.hints.hints
	var m, flushed int // gathered dynamic events; of those, already run
	var static, staticMisp, staticTaken uint64
	lastStatic, lastTaken := false, false
	for i, pc := range pcs {
		o := taken[i]
		h := hints.Get(pc)
		if h == nil {
			dp[m], dt[m] = pc, o
			if idx != nil {
				idx[m] = int32(i)
			}
			m++
			lastStatic = false
			continue
		}
		t := *h
		static++
		staticMisp += b2u(t != o)
		staticTaken += b2u(o)
		if out.Correct != nil {
			out.Correct[i] = t == o
		}
		if out.Collided != nil {
			out.Collided[i] = false
		}
		if out.Conf != nil && c.ce != nil {
			out.Conf[i] = predictor.Confidence{Score: 1}
		}
		lastStatic, lastTaken = true, t
		if shift {
			b.run(flushed, m, &sub, out)
			flushed = m
			if c.shift == ShiftOutcome {
				c.shiftr.ShiftHistory(o)
			} else {
				c.shiftr.ShiftHistory(t)
			}
		}
	}
	b.run(flushed, m, &sub, out)
	if idx != nil {
		b.scatter(idx[:m], out)
	}

	c.stats.StaticExecs += static
	c.stats.StaticMispred += staticMisp
	c.stats.DynamicExecs += uint64(m)
	c.lastStatic, c.lastTaken = lastStatic, lastTaken
	out.Mispredicts += sub.Mispredicts + staticMisp
	out.Collisions += sub.Collisions
	out.Constructive += sub.Constructive
	out.Destructive += sub.Destructive
	out.TakenCount += sub.TakenCount + staticTaken
}

// grow sizes the gather scratch for an n-event block, arming the per-event
// outputs only when the caller armed them.
func (b *combinedBatch) grow(n int, armed bool) {
	if cap(b.pcs) < n {
		b.pcs, b.taken = make([]uint64, n), make([]bool, n)
		b.idx, b.correct, b.collided, b.conf = nil, nil, nil, nil
	}
	if armed && cap(b.idx) < n {
		b.idx = make([]int32, cap(b.pcs))
		b.correct = make([]bool, cap(b.pcs))
		b.collided = make([]bool, cap(b.pcs))
		if b.c.ce != nil {
			b.conf = make([]predictor.Confidence, cap(b.pcs))
		}
	}
}

// run feeds gathered dynamic events [lo, hi) to the dynamic kernel as one
// sub-block, its per-event outputs landing in the scratch at the same
// positions; sub accumulates the counters.
func (b *combinedBatch) run(lo, hi int, sub, out *predictor.BlockMetrics) {
	if lo == hi {
		return
	}
	if out.Correct != nil {
		sub.Correct = b.correct[lo:hi]
	}
	if out.Collided != nil {
		sub.Collided = b.collided[lo:hi]
	}
	if out.Conf != nil && b.conf != nil {
		sub.Conf = b.conf[lo:hi]
	}
	b.k.RunBlock(b.pcs[lo:hi], b.taken[lo:hi], sub)
}

// scatter copies the dynamic events' per-event outputs back to their
// positions in the caller's block.
func (b *combinedBatch) scatter(idx []int32, out *predictor.BlockMetrics) {
	if out.Correct != nil {
		for j, i := range idx {
			out.Correct[i] = b.correct[j]
		}
	}
	if out.Collided != nil {
		for j, i := range idx {
			out.Collided[i] = b.collided[j]
		}
	}
	if out.Conf != nil && b.conf != nil {
		for j, i := range idx {
			out.Conf[i] = b.conf[j]
		}
	}
}

// b2u converts a bool to 0/1.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// EnableCollisionTracking implements predictor.Collider if the dynamic
// component does; otherwise it is a no-op.
func (c *Combined) EnableCollisionTracking() {
	if c.col != nil {
		c.col.EnableCollisionTracking()
	}
}

// LastCollision implements predictor.Collider. A statically predicted
// branch cannot collide — it never indexes a table.
func (c *Combined) LastCollision() bool {
	return !c.lastStatic && c.col != nil && c.col.LastCollision()
}

// ShiftHistory implements predictor.HistoryShifter when the dynamic
// component keeps a global history.
func (c *Combined) ShiftHistory(outcome bool) {
	if c.shiftr != nil {
		c.shiftr.ShiftHistory(outcome)
	}
}

// EnableTableStats implements predictor.Introspector if the dynamic
// component does; otherwise it is a no-op. Static hints keep no tables, so
// introspection passes straight through.
func (c *Combined) EnableTableStats() {
	if in, ok := c.dyn.(predictor.Introspector); ok {
		in.EnableTableStats()
	}
}

// Introspect implements predictor.Introspector, returning the dynamic
// component's table snapshots (nil when it has none).
func (c *Combined) Introspect() []predictor.TableStats {
	if in, ok := c.dyn.(predictor.Introspector); ok {
		return in.Introspect()
	}
	return nil
}

// IntrospectTagged implements predictor.TaggedIntrospector, returning the
// dynamic component's tagged banks (nil when it has none). Hints keep no
// banks, so the wrapper adds nothing.
func (c *Combined) IntrospectTagged() []predictor.TaggedBankStats {
	if tin, ok := c.dyn.(predictor.TaggedIntrospector); ok {
		return tin.IntrospectTagged()
	}
	return nil
}

// ConfidenceSource implements predictor.ConfidenceProvider: the wrapper
// grades its predictions exactly when the dynamic component can grade
// itself.
func (c *Combined) ConfidenceSource() (predictor.ConfidenceEstimator, bool) {
	if c.ce == nil {
		return nil, false
	}
	return c, true
}

// LastConfidence implements predictor.ConfidenceEstimator. A statically
// predicted branch carries full confidence — the hint is fixed, the paper's
// filter has already vouched for it — while dynamic branches report the
// component's own estimate. Meaningful only when ConfidenceSource returns
// true.
func (c *Combined) LastConfidence() predictor.Confidence {
	if c.lastStatic || c.ce == nil {
		return predictor.Confidence{Score: 1}
	}
	return c.ce.LastConfidence()
}
