package predictor

import (
	"encoding/binary"
	"math/bits"
)

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
	// weights holds every weight vector as int8s in one row of
	// perceptronStride bytes per entry: byte 0 is the bias weight, byte k
	// the weight of history bit k-1.
	weights   []byte
	mask      uint64
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

// perceptronHistLen is the history length, fixed at 31 bits (near the
// published sweet spot), so that a weight vector with its bias fills a
// perceptronStride-byte row: four 8-byte words for RunBlock's dot product.
const (
	perceptronHistLen = 31
	perceptronStride  = perceptronHistLen + 1
)

// NewPerceptron builds a perceptron predictor within sizeBytes; the number
// of weight vectors scales with the budget.
func NewPerceptron(sizeBytes int) *Perceptron {
	const perEntryBits = perceptronStride * perceptronWeightBits
	e := 2
	for e*2*perEntryBits <= sizeBytes*8 {
		e *= 2
	}
	p := &Perceptron{
		weights: make([]byte, e*perceptronStride),
		mask:    uint64(e - 1),
		theta:   int32(193*perceptronHistLen/100 + 14), // θ = 1.93·h + 14 (Jiménez & Lin)
	}
	p.hist = newGHR(perceptronHistLen)
	return p
}

// entries is the number of weight vectors.
func (p *Perceptron) entries() int { return len(p.weights) / perceptronStride }

// row is entry i's weight vector.
func (p *Perceptron) row(i uint64) []byte {
	return p.weights[i*perceptronStride : (i+1)*perceptronStride]
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

// SizeBits implements Predictor.
func (p *Perceptron) SizeBits() int {
	return len(p.weights)*perceptronWeightBits + p.hist.sizeBits()
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool {
	p.lIdx = (pcIndex(pc) ^ pcIndex(pc)>>9) & p.mask
	if p.dbgTags != nil {
		old := p.dbgTags[p.lIdx]
		p.collision = old != 0 && old != pc+1
		p.dbgTags[p.lIdx] = pc + 1
	}
	w := p.row(p.lIdx)
	sum := int32(int8(w[0]))
	h := p.hist.bits
	for i := 1; i <= perceptronHistLen; i++ {
		if h&1 == 1 {
			sum += int32(int8(w[i]))
		} else {
			sum -= int32(int8(w[i]))
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

// satAdd8 steps the int8 weight stored in w by ±1, saturating.
func satAdd8(w byte, up bool) byte {
	v := int8(w)
	if up {
		if v < 127 {
			v++
		}
	} else if v > -128 {
		v--
	}
	return byte(v)
}

// Update implements Predictor.
func (p *Perceptron) Update(_ uint64, outcome bool) {
	mag := p.lSum
	if mag < 0 {
		mag = -mag
	}
	if p.lPred != outcome || mag <= p.theta {
		w := p.row(p.lIdx)
		w[0] = satAdd8(w[0], outcome)
		h := p.hist.bits
		for i := 1; i <= perceptronHistLen; i++ {
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
	clear(p.weights)
	if p.dbgTags != nil {
		p.dbgTags = make([]uint64, p.entries())
	}
	p.hist.reset()
	p.collision = false
	p.marginHist = [33]uint64{}
}

// EnableCollisionTracking implements Collider.
func (p *Perceptron) EnableCollisionTracking() {
	if p.dbgTags == nil {
		p.dbgTags = make([]uint64, p.entries())
	}
}

// LastCollision implements Collider.
func (p *Perceptron) LastCollision() bool { return p.collision }

// spread8[b] expands the eight bits of b into eight byte masks: byte j is
// 0xff when bit j of b is set.
var spread8 = func() (t [256]uint64) {
	for b := range t {
		for j := range 8 {
			if b>>j&1 == 1 {
				t[b] |= 0xff << (8 * j)
			}
		}
	}
	return t
}()

// perceptronDot is the dot product of row r with history h (±1 per bit)
// plus the bias, eight weights at a time. XOR with 0x80 in every byte turns
// each weight w into the unsigned w+128, so a 64-bit word's bytes can be
// summed in 16-bit lanes without sign handling; spread8 of a history byte
// keeps the bytes whose bit is 1. Over the selected bytes and over all 32,
//
//	sum = w0 + 2·(Σsel − 128·popcount(h)) − (Σall − (w0+128) − 128·31)
//	    = 2·(w0 + Σsel) − Σall − 256·popcount(h) + 4096
//
// where the history mask is h<<1 (bit k selects row byte k, so the bias
// byte is never selected) and a lane holds at most 8·255: no carries.
func perceptronDot(r *[perceptronStride]byte, h uint64) int32 {
	const bias, lo = 0x8080808080808080, 0x00ff00ff00ff00ff
	m := h << 1
	u0 := binary.LittleEndian.Uint64(r[0:8]) ^ bias
	u1 := binary.LittleEndian.Uint64(r[8:16]) ^ bias
	u2 := binary.LittleEndian.Uint64(r[16:24]) ^ bias
	u3 := binary.LittleEndian.Uint64(r[24:32]) ^ bias
	s0 := u0 & spread8[byte(m)]
	s1 := u1 & spread8[byte(m>>8)]
	s2 := u2 & spread8[byte(m>>16)]
	s3 := u3 & spread8[byte(m>>24)]
	all := u0&lo + u0>>8&lo + u1&lo + u1>>8&lo + u2&lo + u2>>8&lo + u3&lo + u3>>8&lo
	sel := s0&lo + s0>>8&lo + s1&lo + s1>>8&lo + s2&lo + s2>>8&lo + s3&lo + s3>>8&lo
	// Horizontal add of the four 16-bit lanes into the top lane.
	const lanes = 0x0001000100010001
	sumAll, sumSel := int32(all*lanes>>48), int32(sel*lanes>>48)
	return 2*(int32(int8(r[0]))+sumSel) - sumAll - 256*int32(bits.OnesCount64(h)) + 4096
}

// perceptronTrain steps every weight of r by a clamped ±1 toward agreement
// of its bit of h<<1|1 with outcome o: the bias toward o, weight k toward
// history bit k-1 == o.
func perceptronTrain(r *[perceptronStride]byte, h, o uint64) {
	h = h<<1 | 1
	for k := range r {
		agree := (h ^ o ^ 1) & 1
		r[k] = byte(min(max(int16(int8(r[k]))+int16(2*agree)-1, -128), 127))
		h >>= 1
	}
}

// RunBlock implements BatchSim: Predict and Update fused per event, the
// history register in a local, the dot product by perceptronDot and the
// training step by perceptronTrain. When out.Conf is armed every
// prediction is graded as LastConfidence would; with EnableTableStats the
// margin histogram accumulates as in the scalar path.
func (p *Perceptron) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	weights, mask, theta := p.weights, p.mask, p.theta
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
		r := (*[perceptronStride]byte)(weights[idx*perceptronStride:])
		sum = perceptronDot(r, h)
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
			perceptronTrain(r, h, o)
		}
		h = (h<<1 | o) & hm
	}
	a.flush(out)
	p.hist.bits = h
	p.lIdx, p.lSum, p.lPred = idx, sum, sum >= 0
	p.collision = col != 0
}
