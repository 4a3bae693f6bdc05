package profile

// Divergence quantifies how branch behaviour shifts between two inputs of
// the same program — the paper's Table 5. All fields are fractions in [0, 1]
// of the branches executed with the *reference* input: Static counts each
// static branch once, Dynamic weights each branch by its reference execution
// count.
type Divergence struct {
	// Coverage: branches executed with ref that were also seen with train.
	CoverageStatic, CoverageDynamic float64
	// Flip: common branches whose majority direction reverses from train
	// to ref.
	FlipStatic, FlipDynamic float64
	// SmallDrift: common branches whose taken-bias changes by < 5%.
	SmallDriftStatic, SmallDriftDynamic float64
	// LargeDrift: common branches whose taken-bias changes by > 50%.
	LargeDriftStatic, LargeDriftDynamic float64
}

// Divergence thresholds, matching the paper's Table 5 columns.
const (
	smallDriftThreshold = 0.05
	largeDriftThreshold = 0.50
)

// Diverge compares a training profile against a reference profile and
// returns the Table 5 statistics.
func Diverge(train, ref *DB) Divergence {
	var d Divergence
	refStatic := float64(ref.Len())
	refDynamic := float64(ref.DynamicBranches())
	if refStatic == 0 || refDynamic == 0 {
		return d
	}

	var covS, flipS, smallS, largeS uint64
	var covD, flipD, smallD, largeD uint64
	ref.each(func(rb *BranchStats) {
		tb := train.Get(rb.PC)
		if tb == nil {
			return
		}
		covS++
		covD += rb.Exec

		if tb.MajorityTaken() != rb.MajorityTaken() {
			flipS++
			flipD += rb.Exec
		}
		drift := tb.TakenBias() - rb.TakenBias()
		if drift < 0 {
			drift = -drift
		}
		if drift < smallDriftThreshold {
			smallS++
			smallD += rb.Exec
		}
		if drift > largeDriftThreshold {
			largeS++
			largeD += rb.Exec
		}
	})

	d.CoverageStatic = float64(covS) / refStatic
	d.CoverageDynamic = float64(covD) / refDynamic
	d.FlipStatic = float64(flipS) / refStatic
	d.FlipDynamic = float64(flipD) / refDynamic
	d.SmallDriftStatic = float64(smallS) / refStatic
	d.SmallDriftDynamic = float64(smallD) / refDynamic
	d.LargeDriftStatic = float64(largeS) / refStatic
	d.LargeDriftDynamic = float64(largeD) / refDynamic
	return d
}

// HighlyBiasedDynamicFraction returns the fraction of dynamic branch
// executions attributable to branches whose bias exceeds cutoff — the first
// data column of the paper's Table 2 (cutoff 0.95).
func (d *DB) HighlyBiasedDynamicFraction(cutoff float64) float64 {
	total := d.DynamicBranches()
	if total == 0 {
		return 0
	}
	var biased uint64
	d.each(func(b *BranchStats) {
		if b.Bias() > cutoff {
			biased += b.Exec
		}
	})
	return float64(biased) / float64(total)
}
