package predictor

import "math/bits"

// Perceptron is the neural branch predictor of Jiménez and Lin: each branch
// hashes to a weight vector; the prediction is the sign of the dot product
// of the weights with the global history (±1 per bit) plus a bias weight.
// Training only happens on a misprediction or when the output magnitude is
// below a threshold (the classic θ = 1.93·h + 14 rule).
//
// Like TAGE it postdates the paper; the abl-modern experiment uses it to
// test whether profile-guided static filtering still helps predictors whose
// capacity pressure is per-weight rather than per-counter.
type Perceptron struct {
	weights   [][]int16 // [entry][histLen+1], index 0 = bias weight
	mask      uint64
	histLen   int
	theta     int32
	hist      ghr
	collision bool
	dbgTags   []uint64

	lIdx  uint64
	lSum  int32
	lPred bool

	// statsOn gates the margin-histogram accumulation behind
	// EnableTableStats so untelemetried runs pay one boolean test.
	// marginHist log₂-buckets |dot product| over the branch stream.
	statsOn    bool
	marginHist [33]uint64
}

// perceptronWeightBits is the per-weight width (8-bit signed weights, the
// published configuration).
const perceptronWeightBits = 8

// NewPerceptron builds a perceptron predictor within sizeBytes. History
// length is fixed at 31 bits (near the published sweet spot); the number of
// weight vectors scales with the budget.
func NewPerceptron(sizeBytes int) *Perceptron {
	const histLen = 31
	perEntryBits := (histLen + 1) * perceptronWeightBits
	e := 2
	for e*2*perEntryBits <= sizeBytes*8 {
		e *= 2
	}
	p := &Perceptron{
		weights: make([][]int16, e),
		mask:    uint64(e - 1),
		histLen: histLen,
		theta:   int32(193*histLen/100 + 14), // θ = 1.93·h + 14 (Jiménez & Lin)
	}
	for i := range p.weights {
		p.weights[i] = make([]int16, histLen+1)
	}
	p.hist = newGHR(histLen)
	return p
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

// SizeBits implements Predictor.
func (p *Perceptron) SizeBits() int {
	return len(p.weights)*(p.histLen+1)*perceptronWeightBits + p.hist.sizeBits()
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool {
	p.lIdx = (pcIndex(pc) ^ pcIndex(pc)>>9) & p.mask
	if p.dbgTags != nil {
		old := p.dbgTags[p.lIdx]
		p.collision = old != 0 && old != pc+1
		p.dbgTags[p.lIdx] = pc + 1
	}
	w := p.weights[p.lIdx]
	sum := int32(w[0])
	h := p.hist.bits
	for i := 1; i <= p.histLen; i++ {
		if h&1 == 1 {
			sum += int32(w[i])
		} else {
			sum -= int32(w[i])
		}
		h >>= 1
	}
	p.lSum = sum
	p.lPred = sum >= 0
	if p.statsOn {
		m := sum
		if m < 0 {
			m = -m
		}
		p.marginHist[bits.Len32(uint32(m))]++
	}
	return p.lPred
}

// LastConfidence implements ConfidenceEstimator. The dot product survives
// Update untouched (training reads it), so this stays stable until the next
// Predict. Low is the classic margin condition |sum| ≤ θ — the same test
// that forces training on a correct prediction.
func (p *Perceptron) LastConfidence() Confidence {
	return perceptronConfidence(p.lSum, p.theta)
}

// perceptronConfidence grades a prediction by its dot product sum against
// the training threshold theta.
func perceptronConfidence(sum, theta int32) Confidence {
	m := sum
	if m < 0 {
		m = -m
	}
	score := float64(m) / float64(theta)
	if score > 1 {
		score = 1
	}
	return Confidence{Score: score, Low: m <= theta}
}

func satAdd8(w int16, up bool) int16 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -128 {
		return w - 1
	}
	return w
}

// Update implements Predictor.
func (p *Perceptron) Update(_ uint64, outcome bool) {
	mag := p.lSum
	if mag < 0 {
		mag = -mag
	}
	if p.lPred != outcome || mag <= p.theta {
		w := p.weights[p.lIdx]
		w[0] = satAdd8(w[0], outcome)
		h := p.hist.bits
		for i := 1; i <= p.histLen; i++ {
			agree := (h&1 == 1) == outcome
			w[i] = satAdd8(w[i], agree)
			h >>= 1
		}
	}
	p.hist.shift(outcome)
}

// ShiftHistory implements HistoryShifter.
func (p *Perceptron) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *Perceptron) Reset() {
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
	if p.dbgTags != nil {
		p.dbgTags = make([]uint64, len(p.weights))
	}
	p.hist.reset()
	p.collision = false
	p.marginHist = [33]uint64{}
}

// EnableCollisionTracking implements Collider.
func (p *Perceptron) EnableCollisionTracking() {
	if p.dbgTags == nil {
		p.dbgTags = make([]uint64, len(p.weights))
	}
}

// LastCollision implements Collider.
func (p *Perceptron) LastCollision() bool { return p.collision }

// RunBlock implements BatchSim: Predict and Update fused per event, the
// history register in a local. The dot product and the training step are
// branch-free over the history bits: a weight enters the sum negated when
// its bit is 0, and trains toward agreement with the outcome by a clamped
// ±1. When out.Conf is armed every prediction is graded as LastConfidence
// would; with EnableTableStats the margin histogram accumulates as in the
// scalar path.
func (p *Perceptron) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	weights, mask, hl, theta := p.weights, p.mask, p.histLen, p.theta
	h, hm := p.hist.bits, histMask(p.hist.len)
	dbg := p.dbgTags
	statsOn := p.statsOn
	taken = taken[:len(pcs)]
	var conf []Confidence
	if out.Conf != nil {
		conf = out.Conf[:len(pcs)]
	}
	var a acc
	a.init(out, len(pcs))
	var idx, col uint64
	var sum int32
	for i, pc := range pcs {
		o := b2u(taken[i])
		idx = (pcIndex(pc) ^ pcIndex(pc)>>9) & mask
		if dbg != nil {
			old := dbg[idx]
			col = nz(old) & nz(old^(pc+1))
			dbg[idx] = pc + 1
		}
		w := weights[idx][:hl+1]
		// Four partial sums, four weights a step: the adds overlap
		// instead of chaining through one accumulator.
		var s0, s1, s2, s3 int32
		hh := h
		k := 1
		for ; k+4 <= len(w); k += 4 {
			q := w[k : k+4 : k+4]
			n0, n1 := int32(hh&1)-1, int32(hh>>1&1)-1 // 0 for a 1 bit, -1 for a 0 bit
			n2, n3 := int32(hh>>2&1)-1, int32(hh>>3&1)-1
			s0 += int32(q[0]) ^ n0 - n0
			s1 += int32(q[1]) ^ n1 - n1
			s2 += int32(q[2]) ^ n2 - n2
			s3 += int32(q[3]) ^ n3 - n3
			hh >>= 4
		}
		for ; k < len(w); k++ {
			neg := int32(hh&1) - 1
			s0 += int32(w[k]) ^ neg - neg
			hh >>= 1
		}
		sum = int32(w[0]) + s0 + s1 + s2 + s3
		mag := sum
		if mag < 0 {
			mag = -mag
		}
		if statsOn {
			p.marginHist[bits.Len32(uint32(mag))]++
		}
		if conf != nil {
			conf[i] = perceptronConfidence(sum, theta)
		}
		bad := b2u(sum >= 0) ^ o
		a.misp += bad
		a.coll += col
		a.constr += col & (bad ^ 1)
		a.destr += col & bad
		a.tk += o
		if a.correct != nil {
			a.correct[i] = bad == 0
		}
		if a.collided != nil {
			a.collided[i] = col != 0
		}
		if bad != 0 || mag <= theta {
			w[0] = min(max(w[0]+int16(2*o)-1, -128), 127)
			hh := h
			for k := 1; k < len(w); k++ {
				agree := (hh ^ o ^ 1) & 1
				w[k] = min(max(w[k]+int16(2*agree)-1, -128), 127)
				hh >>= 1
			}
		}
		h = (h<<1 | o) & hm
	}
	a.flush(out)
	p.hist.bits = h
	p.lIdx, p.lSum, p.lPred = idx, sum, sum >= 0
	p.collision = col != 0
}
