package predictor

// TAGE (TAgged GEometric history length) is Seznec's successor to 2bcgskew:
// a bimodal base predictor plus several partially tagged components indexed
// with geometrically increasing history lengths. The longest-history
// component that *tag-matches* provides the prediction; allocation on
// mispredictions steers each branch to the shortest history that predicts
// it.
//
// It is not part of the paper's evaluated set (it postdates it by six
// years), but it is the natural end point of the de-aliasing arms race the
// paper participates in: tags remove destructive aliasing directly. The
// abl-modern experiment asks the paper's question against it — how much
// headroom is left for profile-guided static filtering once the dynamic
// predictor de-aliases itself.
//
// This is a compact, faithful TAGE: per-entry 3-bit counters, 2-bit useful
// bits, partial tags, a use-alternate-on-newly-allocated policy, and
// periodic useful-bit aging. No loop predictor or statistical corrector.
type TAGE struct {
	base *table // bimodal base

	comps []tageComp
	hist  ghr

	// lookup state
	lBaseIdx  uint64
	lProvider int // component index, -1 = base
	lAltPred  bool
	lProvPred bool
	lPred     bool
	lIdx      []uint64
	lTagMatch []bool
	lNewAlloc bool
	lConf     Confidence
	collision bool
	tick      int

	// statsOn gates the per-bank stream counters (tag hits, provider
	// attribution, allocation churn) behind EnableTableStats so untelemetried
	// runs pay one boolean test. sBaseProv counts predictions the bimodal
	// base provided.
	statsOn   bool
	sBaseProv uint64

	// fHist is the history value the components' folds (tageComp.fIdx …)
	// were computed from. The folds are a pure function of the history
	// register, so RunBlock resumes from them while fHist still equals it
	// and refolds once a scalar Update, ShiftHistory or Reset has moved it.
	fHist uint64
}

// tageEntry is one tagged-component entry, packed in four bytes so a
// lookup fetches tag, counter and useful bits with one load.
type tageEntry struct {
	tag uint16
	ctr int8  // 3-bit signed counter, -4..3; >= 0 predicts taken
	u   uint8 // 2-bit useful counter
}

type tageComp struct {
	e       []tageEntry
	mask    uint64
	histLen int
	tagBits int

	dbgTags []uint64 // collision instrumentation (last PC per entry)

	// stream counters, accumulated only while statsOn (EnableTableStats):
	// tag hits/misses at lookup, provider attribution (sProv predictions
	// provided, sAlt of those overridden by use-alt-on-newly-allocated),
	// and allocation churn (sAlloc entries claimed, sAllocFail refusals
	// because the candidate's useful counter pinned it).
	sHit, sMiss        uint64
	sProv, sAlt        uint64
	sAlloc, sAllocFail uint64

	// fIdx, fTag and fTag1 are the folds of TAGE.fHist that index and tag
	// this component: foldHistory over (histLen, index width), (histLen,
	// tagBits) and (histLen, tagBits-1). Only RunBlock reads and writes
	// them; the scalar path refolds from the register on every lookup.
	fIdx, fTag, fTag1 uint64
}

// tageNComp is the number of tagged components.
const tageNComp = 5

// tageHistLens are the geometric history lengths of the tagged components.
var tageHistLens = [tageNComp]int{4, 8, 16, 32, 64}

// NewTAGE builds a TAGE within sizeBytes. The base bimodal gets a quarter of
// the budget; the rest splits evenly across the tagged components (each
// entry costs 3+2+tagBits bits).
func NewTAGE(sizeBytes int) *TAGE {
	baseBudget := sizeBytes / 4
	if baseBudget < 1 {
		baseBudget = 1
	}
	t := &TAGE{base: newTable(entriesForBytes(baseBudget))}

	nComp := len(tageHistLens)
	perComp := (sizeBytes - baseBudget) / nComp
	for i, hl := range tageHistLens {
		tagBits := 7 + i // longer histories earn longer tags
		entryBits := 3 + 2 + tagBits
		e := 2
		for e*2*entryBits <= perComp*8 {
			e *= 2
		}
		t.comps = append(t.comps, tageComp{
			e:       make([]tageEntry, e),
			mask:    uint64(e - 1),
			histLen: hl,
			tagBits: tagBits,
		})
	}
	t.hist = newGHR(64)
	t.lIdx = make([]uint64, nComp)
	t.lTagMatch = make([]bool, nComp)
	return t
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

// SizeBits implements Predictor.
func (t *TAGE) SizeBits() int {
	bits := t.base.sizeBits() + t.hist.sizeBits()
	for _, c := range t.comps {
		bits += len(c.e) * (3 + 2 + c.tagBits)
	}
	return bits
}

// foldHistory compresses hl bits of history into width bits by xor-folding.
func foldHistory(hist uint64, hl, width int) uint64 {
	if width <= 0 {
		return 0
	}
	h := hist
	if hl < 64 {
		h &= (uint64(1) << hl) - 1
	}
	var out uint64
	for hl > 0 {
		out ^= h & ((uint64(1) << width) - 1)
		h >>= width
		hl -= width
	}
	return out
}

func (c *tageComp) index(pc, hist uint64) uint64 {
	w := log2(len(c.e))
	a := pcIndex(pc)
	return (a ^ (a >> w) ^ foldHistory(hist, c.histLen, w)) & c.mask
}

func (c *tageComp) tagOf(pc, hist uint64) uint16 {
	a := pcIndex(pc)
	return uint16((a ^ (a >> 5) ^ foldHistory(hist, c.histLen, c.tagBits) ^
		foldHistory(hist, c.histLen, c.tagBits-1)<<1) & ((1 << c.tagBits) - 1))
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	t.lBaseIdx = pcIndex(pc)
	baseCtr, col := t.base.read(t.lBaseIdx, pc)
	t.collision = col
	basePred := taken(baseCtr)

	t.lProvider = -1
	alt := basePred
	pred := basePred
	altSet := false
	for i := range t.comps {
		c := &t.comps[i]
		t.lIdx[i] = c.index(pc, t.hist.bits)
		t.lTagMatch[i] = c.e[t.lIdx[i]].tag == c.tagOf(pc, t.hist.bits)
		if c.dbgTags != nil {
			old := c.dbgTags[t.lIdx[i]]
			if old != 0 && old != pc+1 {
				t.collision = true
			}
			c.dbgTags[t.lIdx[i]] = pc + 1
		}
		if t.statsOn {
			if t.lTagMatch[i] {
				c.sHit++
			} else {
				c.sMiss++
			}
		}
		if t.lTagMatch[i] {
			if t.lProvider >= 0 {
				alt = t.comps[t.lProvider].e[t.lIdx[t.lProvider]].ctr >= 0
				altSet = true
			}
			t.lProvider = i
		}
	}
	if t.lProvider >= 0 {
		prov := &t.comps[t.lProvider]
		en := prov.e[t.lIdx[t.lProvider]]
		ctr := en.ctr
		t.lProvPred = ctr >= 0
		if !altSet {
			alt = basePred
		}
		// use-alt-on-newly-allocated: weak counter + not useful
		weak := ctr == 0 || ctr == -1
		t.lNewAlloc = weak && en.u == 0
		if t.lNewAlloc {
			pred = alt
		} else {
			pred = t.lProvPred
		}
	} else {
		t.lProvPred = basePred
		t.lNewAlloc = false
	}
	t.lAltPred = alt
	t.lPred = pred
	if t.statsOn {
		if t.lProvider >= 0 {
			prov := &t.comps[t.lProvider]
			prov.sProv++
			if t.lNewAlloc {
				prov.sAlt++
			}
		} else {
			t.sBaseProv++
		}
	}
	t.lConf = t.confidence(baseCtr)
	return pred
}

// confidence grades the prediction Predict just produced, from the provider
// state as read at lookup time (Update mutates the provider counter, so this
// must be captured here, not computed lazily).
func (t *TAGE) confidence(baseCtr uint8) Confidence {
	if t.lProvider < 0 {
		return tageConfidence(baseCtr, false, false, 0, 0)
	}
	en := t.comps[t.lProvider].e[t.lIdx[t.lProvider]]
	return tageConfidence(baseCtr, true, t.lNewAlloc, en.ctr, en.u)
}

// tageConfidence is the confidence model over the lookup state: the base
// counter, whether a tagged component provided, whether the
// use-alt-on-newly-allocated policy fired, and the provider entry's counter
// and useful bits.
func tageConfidence(baseCtr uint8, provided, newAlloc bool, ctr int8, useful uint8) Confidence {
	if !provided {
		// Base bimodal provided: only the 2-bit counter speaks. A saturated
		// counter earns the strength a mid-range tagged provider would; the
		// weak states are low-confidence by construction.
		if baseCtr == 0 || baseCtr == ctrMax {
			return Confidence{Score: 4.0 / 9.0}
		}
		return Confidence{Score: 1.0 / 9.0, Low: true}
	}
	if newAlloc {
		// Newly allocated entry: the alternate prediction was used and the
		// provider has earned no trust yet.
		return Confidence{Score: 0, Low: true}
	}
	s := int(ctr)
	if s < 0 {
		s = -s - 1 // 3-bit counter strength: 0 (weak) … 3 (saturated)
	}
	return Confidence{Score: float64(2*s+int(useful)) / 9.0, Low: s == 0}
}

// LastConfidence implements ConfidenceEstimator.
func (t *TAGE) LastConfidence() Confidence { return t.lConf }

func ctr3Update(v int8, outcome bool) int8 {
	if outcome {
		if v < 3 {
			return v + 1
		}
		return v
	}
	if v > -4 {
		return v - 1
	}
	return v
}

// Update implements Predictor.
func (t *TAGE) Update(pc uint64, outcome bool) {
	correct := t.lPred == outcome

	if t.lProvider >= 0 {
		en := &t.comps[t.lProvider].e[t.lIdx[t.lProvider]]
		// useful bit: provider beat the alternate
		if t.lProvPred != t.lAltPred {
			if t.lProvPred == outcome {
				if en.u < 3 {
					en.u++
				}
			} else if en.u > 0 {
				en.u--
			}
		}
		en.ctr = ctr3Update(en.ctr, outcome)
		// train the base too when the provider entry is freshly allocated
		if t.lNewAlloc {
			t.base.update(t.lBaseIdx, outcome)
		}
	} else {
		t.base.update(t.lBaseIdx, outcome)
	}

	// allocate a longer-history entry on a misprediction
	if !correct && t.lProvider < len(t.comps)-1 {
		start := t.lProvider + 1
		allocated := false
		for i := start; i < len(t.comps); i++ {
			c := &t.comps[i]
			en := &c.e[c.index(pc, t.hist.bits)]
			if en.u == 0 {
				en.tag = c.tagOf(pc, t.hist.bits)
				if outcome {
					en.ctr = 0
				} else {
					en.ctr = -1
				}
				if t.statsOn {
					c.sAlloc++
				}
				allocated = true
				break
			}
			if t.statsOn {
				c.sAllocFail++
			}
		}
		if !allocated {
			// decay useful bits on the candidates so future allocations
			// succeed (the classic anti-ping-pong mechanism)
			for i := start; i < len(t.comps); i++ {
				c := &t.comps[i]
				if en := &c.e[c.index(pc, t.hist.bits)]; en.u > 0 {
					en.u--
				}
			}
		}
		// periodic global aging
		t.tick++
		if t.tick >= 1<<18 {
			t.tick = 0
			for i := range t.comps {
				ageUseful(t.comps[i].e)
			}
		}
	}

	t.hist.shift(outcome)
}

// ShiftHistory implements HistoryShifter.
func (t *TAGE) ShiftHistory(outcome bool) { t.hist.shift(outcome) }

// Reset implements Predictor.
func (t *TAGE) Reset() {
	t.base.reset()
	for i := range t.comps {
		c := &t.comps[i]
		clear(c.e)
		if c.dbgTags != nil {
			c.dbgTags = make([]uint64, len(c.e))
		}
		c.sHit, c.sMiss = 0, 0
		c.sProv, c.sAlt = 0, 0
		c.sAlloc, c.sAllocFail = 0, 0
	}
	t.hist.reset()
	t.tick = 0
	t.collision = false
	t.sBaseProv = 0
	t.lConf = Confidence{}
}

// EnableCollisionTracking implements Collider.
func (t *TAGE) EnableCollisionTracking() {
	t.base.enableTags()
	for i := range t.comps {
		if t.comps[i].dbgTags == nil {
			t.comps[i].dbgTags = make([]uint64, len(t.comps[i].e))
		}
	}
}

// LastCollision implements Collider.
func (t *TAGE) LastCollision() bool { return t.collision }

// ageUseful halves every useful counter of a component (periodic global
// aging).
func ageUseful(e []tageEntry) {
	for k := range e {
		e[k].u >>= 1
	}
}

// foldStep advances a width-w fold of the last hl history bits across one
// history shift (Seznec's circular-shift folding): rotate left by one within
// the width, xor in the incoming outcome bit, and xor out the bit that
// leaves the hl-bit window, which the rotation has carried to position
// hl mod w. m is the width mask and p = hl mod w.
func foldStep(f uint64, w uint, m uint64, p uint, in, leaving uint64) uint64 {
	return (f<<1|f>>(w-1))&m ^ in ^ leaving<<p
}

// refold recomputes every component's folds from the history register.
func (t *TAGE) refold() {
	h := t.hist.bits
	for i := range t.comps {
		c := &t.comps[i]
		c.fIdx = foldHistory(h, c.histLen, log2(len(c.e)))
		c.fTag = foldHistory(h, c.histLen, c.tagBits)
		c.fTag1 = foldHistory(h, c.histLen, c.tagBits-1)
	}
	t.fHist = h
}

// tageLane is one tagged component as RunBlock sees it: the bank slices and
// index/tag geometry hoisted out of the struct, and the three folds the
// kernel advances per event with foldStep.
type tageLane struct {
	e   []tageEntry
	dbg []uint64

	w, leave             uint // index width; histLen-1, the window's top bit
	wTag, wTag1          uint
	pIdx, pTag, pTag1    uint // histLen mod each fold width
	mIdx, mTag, mTag1    uint64
	fIdx, fTag, fTag1    uint64
	hit, miss, prov, alt uint64 // stream counters, flushed at block end
	alloc, allocFail     uint64
}

func (c *tageComp) lane() tageLane {
	w := uint(log2(len(c.e)))
	tb := uint(c.tagBits)
	hl := uint(c.histLen)
	return tageLane{
		e: c.e, dbg: c.dbgTags,
		w: w, leave: hl - 1, wTag: tb, wTag1: tb - 1,
		pIdx: hl % w, pTag: hl % tb, pTag1: hl % (tb - 1),
		mIdx: histMask(int(w)), mTag: histMask(int(tb)), mTag1: histMask(int(tb - 1)),
		fIdx: c.fIdx, fTag: c.fTag, fTag1: c.fTag1,
	}
}

// RunBlock implements BatchSim: Predict and Update fused per event over
// hoisted bank slices. Each component's index, tag and tag-1 folds of the
// global history live in locals and advance by one foldStep per event,
// where the scalar path refolds the 64-bit register fifteen times per
// lookup; the folds persist across blocks with the history they fold.
// When out.Conf is armed the kernel grades every prediction exactly as
// LastConfidence would, and with EnableTableStats it keeps the same
// per-bank stream counters as the scalar path.
func (t *TAGE) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	bctr := t.base.ctr
	if len(bctr) == 0 {
		return
	}
	btags, bsw := t.base.tags, t.base.switches
	if btags != nil {
		btags = btags[:len(bctr)]
	}
	if bsw != nil {
		bsw = bsw[:len(bctr)]
	}
	if t.fHist != t.hist.bits {
		t.refold()
	}
	var ln [tageNComp]tageLane
	for j := range ln {
		ln[j] = t.comps[j].lane()
	}
	h, hm := t.hist.bits, histMask(t.hist.len)
	statsOn := t.statsOn
	var baseProv uint64
	tick := t.tick
	taken = taken[:len(pcs)]
	var conf []Confidence
	if out.Conf != nil {
		conf = out.Conf[:len(pcs)]
	}
	var a acc
	a.init(out, len(pcs))

	var idx [tageNComp]int
	var tg [tageNComp]uint16
	var col uint64
	// The last event's lookup state, for LastConfidence after the block.
	var lBase uint8
	var lProvided, lNewAlloc bool
	var lCtr int8
	var lUseful uint8
	for i, pc := range pcs {
		outcome := taken[i]
		o := b2u(outcome)
		pa := pcIndex(pc)
		bi := int(pa) & (len(bctr) - 1)
		bc := bctr[bi]
		col = tagReadU(btags, bsw, bi, pc)
		basePred := bc >= ctrThreshold

		// Lookup: the longest tag-matching component provides, the next
		// longest match (else the base) is the alternate.
		prov := -1
		alt := basePred
		var pctr int8 // the provider entry's counter and useful bits
		var pu uint8
		for j := range ln {
			l := &ln[j]
			ix := int((pa^pa>>l.w^l.fIdx)&l.mIdx) & (len(l.e) - 1)
			tag := uint16((pa ^ pa>>5 ^ l.fTag ^ l.fTag1<<1) & l.mTag)
			idx[j], tg[j] = ix, tag
			if l.dbg != nil {
				old := l.dbg[ix]
				col |= nz(old) & nz(old^(pc+1))
				l.dbg[ix] = pc + 1
			}
			if en := l.e[ix]; en.tag == tag {
				l.hit++
				if prov >= 0 {
					alt = pctr >= 0
				}
				prov, pctr, pu = j, en.ctr, en.u
			} else {
				l.miss++
			}
		}
		pred, provPred, newAlloc := basePred, basePred, false
		if prov >= 0 {
			l := &ln[prov]
			provPred = pctr >= 0
			newAlloc = (pctr == 0 || pctr == -1) && pu == 0
			pred = provPred
			if newAlloc {
				pred = alt
			}
			l.prov++
			if newAlloc {
				l.alt++
			}
		} else {
			baseProv++
		}
		if conf != nil {
			conf[i] = tageConfidence(bc, prov >= 0, newAlloc, pctr, pu)
		}
		correct := pred == outcome
		a.tk += o
		a.score(i, correct, col != 0)

		// Update: train the provider (and its useful bits when it
		// disagreed with the alternate), else the base.
		if prov >= 0 {
			en := &ln[prov].e[idx[prov]]
			if provPred != alt {
				if provPred == outcome {
					if pu < 3 {
						en.u = pu + 1
					}
				} else if pu > 0 {
					en.u = pu - 1
				}
			}
			en.ctr = ctr3Update(pctr, outcome)
			if newAlloc {
				bctr[bi] = ctrStep(bc, o, 1)
			}
		} else {
			bctr[bi] = ctrStep(bc, o, 1)
		}
		// Allocate a longer-history entry on a misprediction.
		if !correct && prov < tageNComp-1 {
			allocated := false
			for j := prov + 1; j < tageNComp; j++ {
				l := &ln[j]
				if en := &l.e[idx[j]]; en.u == 0 {
					*en = tageEntry{tag: tg[j], ctr: int8(o) - 1}
					l.alloc++
					allocated = true
					break
				}
				l.allocFail++
			}
			if !allocated {
				for j := prov + 1; j < tageNComp; j++ {
					if en := &ln[j].e[idx[j]]; en.u > 0 {
						en.u--
					}
				}
			}
			tick++
			if tick >= 1<<18 {
				tick = 0
				for j := range ln {
					ageUseful(ln[j].e)
				}
			}
		}

		for j := range ln {
			l := &ln[j]
			leaving := h >> l.leave & 1
			l.fIdx = foldStep(l.fIdx, l.w, l.mIdx, l.pIdx, o, leaving)
			l.fTag = foldStep(l.fTag, l.wTag, l.mTag, l.pTag, o, leaving)
			l.fTag1 = foldStep(l.fTag1, l.wTag1, l.mTag1, l.pTag1, o, leaving)
		}
		h = (h<<1 | o) & hm
		lBase, lProvided, lNewAlloc, lCtr, lUseful = bc, prov >= 0, newAlloc, pctr, pu
	}
	a.flush(out)

	for j := range ln {
		l, c := &ln[j], &t.comps[j]
		c.fIdx, c.fTag, c.fTag1 = l.fIdx, l.fTag, l.fTag1
		if statsOn {
			c.sHit += l.hit
			c.sMiss += l.miss
			c.sProv += l.prov
			c.sAlt += l.alt
			c.sAlloc += l.alloc
			c.sAllocFail += l.allocFail
		}
	}
	if statsOn {
		t.sBaseProv += baseProv
	}
	t.hist.bits, t.fHist = h, h
	t.tick = tick
	t.collision = col != 0
	t.lConf = tageConfidence(lBase, lProvided, lNewAlloc, lCtr, lUseful)
}
