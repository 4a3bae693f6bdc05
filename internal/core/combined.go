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

// Batched implements predictor.BatchProvider. A transparent wrapper — no
// hints, so every branch flows to the dynamic component — delegates whole
// blocks to the dynamic predictor's kernel, keeping the baseline arms of a
// sweep on the fast path. With hints installed the static lookup must run
// per branch, so the wrapper stays scalar.
func (c *Combined) Batched() (predictor.BatchSim, bool) {
	if c.hints != nil && c.hints.Len() > 0 {
		return nil, false
	}
	k, native := predictor.Batch(c.dyn)
	if !native {
		return nil, false
	}
	return &combinedBatch{c: c, k: k}, true
}

// combinedBatch forwards blocks to the dynamic component's kernel while
// keeping the wrapper's static/dynamic split statistics exact: with no
// hints, the scalar path counts every branch as a dynamic execution.
type combinedBatch struct {
	c *Combined
	k predictor.BatchSim
}

// RunBlock implements predictor.BatchSim.
func (b *combinedBatch) RunBlock(pcs []uint64, taken []bool, out *predictor.BlockMetrics) {
	b.c.stats.DynamicExecs += uint64(len(pcs))
	b.k.RunBlock(pcs, taken, out)
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
