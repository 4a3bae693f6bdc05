// Package profile implements the profile database the paper's methodology
// rests on: per-branch execution counts, taken counts and — for Static_Acc
// selection — per-branch accuracy of a specific dynamic predictor, collected
// in a phase-1 simulation.
//
// The package also models the Spike-style profile maintenance the paper
// proposes for cross-training robustness (§5.1): merging databases from
// several inputs and filtering out branches whose bias drifts between runs.
package profile

import (
	"fmt"
	"sort"

	"branchsim/internal/pctab"
)

// BranchStats accumulates the behaviour of one static conditional branch.
type BranchStats struct {
	PC      uint64 `json:"pc"`
	Exec    uint64 `json:"exec"`
	Taken   uint64 `json:"taken"`
	Correct uint64 `json:"correct,omitempty"` // phase-1 dynamic-predictor hits; meaningful only if DB.Predictor != ""
	Dcol    uint64 `json:"dcol,omitempty"`    // phase-1 destructive collisions suffered by this branch
	LowConf uint64 `json:"lowconf,omitempty"` // phase-1 low-confidence executions; only if the predictor grades itself
}

// TakenBias is the fraction of executions in which the branch was taken.
func (b *BranchStats) TakenBias() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Exec)
}

// Bias is the paper's bias metric: max(taken-bias, not-taken-bias), in
// [0.5, 1] for any executed branch and 0 for a never-executed one.
func (b *BranchStats) Bias() float64 {
	if b.Exec == 0 {
		return 0
	}
	tb := b.TakenBias()
	if tb >= 0.5 {
		return tb
	}
	return 1 - tb
}

// MajorityTaken reports the branch's dominant direction; ties count as
// taken.
func (b *BranchStats) MajorityTaken() bool { return 2*b.Taken >= b.Exec }

// Accuracy is the phase-1 dynamic predictor's per-branch prediction
// accuracy. It is 0 for a DB collected without a predictor.
func (b *BranchStats) Accuracy() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.Correct) / float64(b.Exec)
}

// LowConfRate is the fraction of phase-1 executions the dynamic predictor
// graded as low confidence. It is 0 for a DB collected without a
// self-grading predictor.
func (b *BranchStats) LowConfRate() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.LowConf) / float64(b.Exec)
}

// DB is a profile database for one (workload, input) pair, optionally
// annotated with per-branch accuracy of one dynamic predictor.
type DB struct {
	Workload     string `json:"workload"`
	Input        string `json:"input"`
	Predictor    string `json:"predictor,omitempty"` // spec whose accuracy Correct records
	Instructions uint64 `json:"instructions"`

	// byPC holds each branch's record. Records are allocated once and
	// never move, so a *BranchStats from Get stays valid while the branch
	// is in the database.
	byPC pctab.Table[*BranchStats]
}

// NewDB returns an empty database.
func NewDB(workload, input string) *DB {
	return &DB{Workload: workload, Input: input}
}

// Get returns the stats for pc, or nil if the branch never executed.
func (d *DB) Get(pc uint64) *BranchStats {
	if b := d.byPC.Get(pc); b != nil {
		return *b
	}
	return nil
}

// Len returns the number of static branches recorded.
func (d *DB) Len() int { return d.byPC.Len() }

// each calls fn for every recorded branch, in no particular order.
func (d *DB) each(fn func(b *BranchStats)) {
	d.byPC.Range(func(_ uint64, b **BranchStats) { fn(*b) })
}

// DynamicBranches returns the total dynamic conditional branch count.
func (d *DB) DynamicBranches() uint64 {
	var n uint64
	d.each(func(b *BranchStats) { n += b.Exec })
	return n
}

// Branches returns all recorded branches sorted by PC.
func (d *DB) Branches() []*BranchStats {
	out := make([]*BranchStats, 0, d.Len())
	d.each(func(b *BranchStats) { out = append(out, b) })
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// stats returns the record for pc, creating it on first use.
func (d *DB) stats(pc uint64) *BranchStats {
	b, added := d.byPC.Put(pc)
	if added {
		*b = &BranchStats{PC: pc}
	}
	return *b
}

// Record adds one dynamic execution of the branch at pc.
func (d *DB) Record(pc uint64, taken bool) {
	b := d.stats(pc)
	b.Exec++
	if taken {
		b.Taken++
	}
}

// RecordPredicted adds one dynamic execution together with whether the
// phase-1 predictor got it right.
func (d *DB) RecordPredicted(pc uint64, taken, correct bool) {
	b := d.stats(pc)
	b.Exec++
	if taken {
		b.Taken++
	}
	if correct {
		b.Correct++
	}
}

// RecordDestructiveCollision notes that the branch at pc suffered a
// destructive collision in the phase-1 predictor (its lookup aliased with
// another branch and the prediction was wrong). Used by the
// collision-targeted selection scheme.
func (d *DB) RecordDestructiveCollision(pc uint64) { d.stats(pc).Dcol++ }

// RecordLowConfidence notes that the phase-1 predictor graded one execution
// of the branch at pc as low confidence. Used by the confidence-based
// selection scheme (Static_Conf).
func (d *DB) RecordLowConfidence(pc uint64) { d.stats(pc).LowConf++ }

// Remove deletes the branch at pc from the database.
func (d *DB) Remove(pc uint64) { d.byPC.Delete(pc) }

// Clone returns a deep copy.
func (d *DB) Clone() *DB {
	out := *d
	out.byPC = d.byPC.Clone()
	out.byPC.Range(func(_ uint64, b **BranchStats) {
		cp := **b
		*b = &cp
	})
	return &out
}

// Merge folds other into d, summing per-branch counts — the Spike model of
// accumulating profiles across program runs. Accuracy counts are summed only
// when both databases were profiled against the same predictor spec;
// otherwise the merged DB drops its predictor annotation (bias data, which
// Static_95 needs, remains valid).
func (d *DB) Merge(other *DB) {
	if other == nil {
		return
	}
	samePred := d.Predictor != "" && d.Predictor == other.Predictor
	if !samePred {
		d.Predictor = ""
	}
	d.Instructions += other.Instructions
	other.each(func(ob *BranchStats) {
		b := d.stats(ob.PC)
		b.Exec += ob.Exec
		b.Taken += ob.Taken
		if samePred {
			b.Correct += ob.Correct
			b.Dcol += ob.Dcol
			b.LowConf += ob.LowConf
		}
	})
	if !samePred {
		d.each(func(b *BranchStats) {
			b.Correct = 0
			b.Dcol = 0
			b.LowConf = 0
		})
	}
	if d.Input != other.Input {
		d.Input = d.Input + "+" + other.Input
	}
}

// RemoveUnstable deletes from d every branch that also appears in other and
// whose taken-bias differs by more than maxDrift (e.g. 0.05 for the paper's
// 5% filter). This is the profile-maintenance step behind the fourth bar of
// Figure 13: hints are then generated only from branches whose behaviour is
// stable across inputs. It returns the number of branches removed.
func (d *DB) RemoveUnstable(other *DB, maxDrift float64) int {
	var unstable []uint64
	d.each(func(b *BranchStats) {
		ob := other.Get(b.PC)
		if ob == nil {
			return
		}
		drift := b.TakenBias() - ob.TakenBias()
		if drift < 0 {
			drift = -drift
		}
		if drift > maxDrift {
			unstable = append(unstable, b.PC)
		}
	})
	for _, pc := range unstable {
		d.Remove(pc)
	}
	return len(unstable)
}

// Validate performs internal consistency checks and returns the first
// problem found.
func (d *DB) Validate() error {
	var err error
	d.byPC.Range(func(pc uint64, bp **BranchStats) {
		b := *bp
		switch {
		case err != nil:
		case b.PC != pc:
			err = fmt.Errorf("profile: key %#x holds record for pc %#x", pc, b.PC)
		case b.Taken > b.Exec:
			err = fmt.Errorf("profile: pc %#x: taken %d > exec %d", pc, b.Taken, b.Exec)
		case b.Correct > b.Exec:
			err = fmt.Errorf("profile: pc %#x: correct %d > exec %d", pc, b.Correct, b.Exec)
		case b.LowConf > b.Exec:
			err = fmt.Errorf("profile: pc %#x: lowconf %d > exec %d", pc, b.LowConf, b.Exec)
		}
	})
	return err
}
