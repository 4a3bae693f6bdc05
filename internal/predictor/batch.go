package predictor

// Batched, devirtualized simulation kernels.
//
// The trace-driven protocol (Predict then Update, one interface call each,
// per dynamic branch) is what the replay hot path pays for every event of
// every arm. For the paper's table predictors both calls reduce to a handful
// of arithmetic on flattened counter slices, so each predictor below also
// implements BatchSim: a fused predict+score+train loop over a whole block
// of decoded (pc, taken) events with no per-event dispatch, the table and
// history state hoisted into locals for the duration of the block.
//
// Equivalence obligation: for any event stream, cut into blocks at any
// offsets, a kernel must leave the predictor in exactly the state the
// scalar Predict/Update sequence would — counters, tags, switch counts,
// history register, stream counters, LastCollision, LastConfidence — and
// must score exactly the same per-event correctness, collision flags and
// confidence grades. The tage and perceptron kernels live next to their
// scalar code (tage.go, perceptron.go). The differential tests in
// batch_test.go and internal/sim enforce this bit-for-bit.

// BlockMetrics accumulates the outcome of one RunBlock call. The counters
// are raw: collision counts reflect the predictor's tag instrumentation
// whenever tags are enabled, and the caller applies its own tracking policy
// (sim.Runner only folds them into its metrics when collision tracking was
// requested), mirroring how the scalar path gates on Collider.LastCollision.
type BlockMetrics struct {
	Mispredicts  uint64
	Collisions   uint64
	Constructive uint64
	Destructive  uint64
	// TakenCount is the number of taken outcomes in the block. The kernels
	// compute it for free alongside scoring, sparing the caller a second
	// pass over the outcome array.
	TakenCount uint64

	// Correct and Collided, when non-nil with at least len(pcs) slots,
	// receive each event's prediction correctness and collision flag, for
	// callers that feed per-event consumers (telemetry, profiles) after the
	// block. Nil (the default) skips the per-event writes.
	Correct  []bool
	Collided []bool
	// Conf, when non-nil with at least len(pcs) slots, receives each
	// event's confidence grade — what LastConfidence would report right
	// after that event's Predict. Only kernels of predictors that grade
	// themselves (ConfidenceEstimatorOf reports true) fill it; callers arm
	// it only for those.
	Conf []Confidence
}

// acc carries a block's scores in locals — registers, inside a kernel loop —
// and folds them into the BlockMetrics once per block. Writing through the
// out pointer per event costs the kernels ~15% (the stores serialize against
// the table loads); the accumulator keeps the loop body store-free except
// for the tables themselves and the optional per-event arrays.
type acc struct {
	misp, coll, constr, destr, tk uint64
	correct, collided             []bool
}

// init captures out's per-event arrays clipped to the block length n, so the
// kernels' a.correct[i] stores are provably in bounds (i ranges over n).
func (a *acc) init(out *BlockMetrics, n int) {
	if out.Correct != nil {
		a.correct = out.Correct[:n]
	}
	if out.Collided != nil {
		a.collided = out.Collided[:n]
	}
}

// score is record on locals; kernels call it with i only when the per-event
// arrays are armed, via the inlined nil checks below.
func (a *acc) score(i int, correct, collided bool) {
	if !correct {
		a.misp++
	}
	if collided {
		a.coll++
		if correct {
			a.constr++
		} else {
			a.destr++
		}
	}
	if a.correct != nil {
		a.correct[i] = correct
	}
	if a.collided != nil {
		a.collided[i] = collided
	}
}

func (a *acc) flush(out *BlockMetrics) {
	out.Mispredicts += a.misp
	out.Collisions += a.coll
	out.Constructive += a.constr
	out.Destructive += a.destr
	out.TakenCount += a.tk
}

// BatchSim simulates a whole block of dynamic branches in one call:
// pcs[i]/taken[i] is the i-th branch in program order, and out accumulates
// the block's scores. Semantically identical to calling Predict(pcs[i])
// then Update(pcs[i], taken[i]) per event on the same predictor.
type BatchSim interface {
	RunBlock(pcs []uint64, taken []bool, out *BlockMetrics)
}

// BatchProvider is implemented by wrappers that can sometimes expose a
// native kernel — e.g. a combined static+dynamic predictor runs whole
// blocks whenever its dynamic component has a kernel.
// Batched returns (kernel, true) when delegation is exact, (nil, false)
// when the wrapper must stay on the scalar path.
type BatchProvider interface {
	Batched() (BatchSim, bool)
}

// Batch returns a block simulator for p. When p provides a native
// devirtualized kernel (directly or through BatchProvider), native is true;
// otherwise the returned BatchSim is a generic scalar fallback that loops
// Predict/Update and native is false. Either way the result drives p's own
// state — interleaving RunBlock with scalar Predict/Update calls is legal.
func Batch(p Predictor) (bs BatchSim, native bool) {
	if bp, ok := p.(BatchProvider); ok {
		if k, ok := bp.Batched(); ok && k != nil {
			return k, true
		}
	} else if k, ok := p.(BatchSim); ok {
		return k, true
	}
	return newScalarBlock(p), false
}

// scalarBlock is the generic fallback: the scalar protocol in block
// clothing, for predictors without a kernel (local, yags, mcfarling, and
// combined predictors over them).
type scalarBlock struct {
	p   Predictor
	col Collider            // nil when p cannot track collisions
	ce  ConfidenceEstimator // nil when p cannot grade itself
}

func newScalarBlock(p Predictor) *scalarBlock {
	col, _ := p.(Collider)
	ce, _ := ConfidenceEstimatorOf(p)
	return &scalarBlock{p: p, col: col, ce: ce}
}

// RunBlock implements BatchSim.
func (s *scalarBlock) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	for i, pc := range pcs {
		outcome := taken[i]
		correct := s.p.Predict(pc) == outcome
		collided := s.col != nil && s.col.LastCollision()
		if out.Conf != nil && s.ce != nil {
			out.Conf[i] = s.ce.LastConfidence()
		}
		s.p.Update(pc, outcome)
		a.tk += b2u(outcome)
		a.score(i, correct, collided)
	}
	a.flush(out)
}

// histMask is the bit mask a ghr of length n applies after shifting.
func histMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// shiftHist is ghr.shift on a hoisted history value.
func shiftHist(h uint64, outcome bool, hm uint64) uint64 {
	h <<= 1
	if outcome {
		h |= 1
	}
	return h & hm
}

// tagRead is the tag half of table.read on hoisted slices: reports whether
// the (pre-masked) entry was last used by a different PC, installs pc as
// its tag, and counts the ownership switch when switch counting is on.
func tagRead(tags []uint64, switches []uint32, idx int, pc uint64) bool {
	if tags == nil {
		return false
	}
	old := tags[idx]
	collided := old != 0 && old != pc+1
	tags[idx] = pc + 1
	if collided && switches != nil {
		switches[idx]++
	}
	return collided
}

// ctrUp is table.update on a hoisted counter slice with a pre-masked index.
func ctrUp(ctr []uint8, idx int, outcome bool) {
	c := ctr[idx]
	if outcome {
		if c < ctrMax {
			ctr[idx] = c + 1
		}
	} else if c > 0 {
		ctr[idx] = c - 1
	}
}

// The helpers below are the branch-free vocabulary of the multi-bank
// kernels. A 2-bit counter's prediction, the majority vote, the chooser and
// the partial-update policy are all functions of a few 0/1 bits; computing
// them with masks instead of control flow matters because these bits track
// the branch being simulated — exactly the hard-to-predict data on which the
// host CPU's own predictor fails, at ~15 cycles per mispredict, several
// times per event.

// b2u converts a bool to 0/1 (the compiler lowers this branch-free).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// nz is 1 when x is non-zero, 0 otherwise, branch-free.
func nz(x uint64) uint64 { return (x | -x) >> 63 }

// ctrStep returns 2-bit counter c trained toward direction d (1 = taken)
// when en is 1, unchanged when en is 0. The saturation guards are arithmetic
// on the counter's two bits: (c^3+3)>>2 is 1 unless c is saturated up,
// (c+3)>>2 is 1 unless c is zero.
func ctrStep(c uint8, d, en uint64) uint8 {
	cc := uint64(c)
	inc := en & d & (((cc ^ 3) + 3) >> 2)
	dec := en & (d ^ 1) & ((cc + 3) >> 2)
	return uint8(cc + inc - dec)
}

// tagReadU is tagRead returning the collision as a 0/1 mask, computed
// without data-dependent control flow. The nil checks hoist perfectly: they
// are loop-invariant, so the host predicts them; the collision itself is
// pure arithmetic.
func tagReadU(tags []uint64, switches []uint32, idx int, pc uint64) uint64 {
	if tags == nil {
		return 0
	}
	old := tags[idx]
	tags[idx] = pc + 1
	col := nz(old) & nz(old^(pc+1))
	if switches != nil {
		switches[idx] += uint32(col)
	}
	return col
}

// RunBlock implements BatchSim: the bimodal predict+train loop over
// flattened counter and tag slices.
func (p *Bimodal) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	ctr := p.t.ctr
	if len(ctr) == 0 {
		return
	}
	// Indices are computed as int(x) & (len(ctr)-1) — the masking pattern the
	// prove pass recognizes — and tags/switches are clipped to len(ctr), so
	// the loop body carries no bounds checks.
	tags, switches := p.t.tags, p.t.switches
	if tags != nil {
		tags = tags[:len(ctr)]
	}
	if switches != nil {
		switches = switches[:len(ctr)]
	}
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var lastCol uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		idx := int(pcIndex(pc)) & (len(ctr) - 1)
		c := ctr[idx]
		col := tagReadU(tags, switches, idx, pc)
		bad := uint64(c>>1) ^ o
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
		ctr[idx] = ctrStep(c, o, 1)
		lastCol = col
	}
	a.flush(out)
	p.collision = lastCol != 0
}

// RunBlock implements BatchSim: GAg with the history register carried in a
// local across the block.
func (p *GHist) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	ctr := p.t.ctr
	if len(ctr) == 0 {
		return
	}
	// Indices are computed as int(x) & (len(ctr)-1) — the masking pattern the
	// prove pass recognizes — and tags/switches are clipped to len(ctr), so
	// the loop body carries no bounds checks.
	tags, switches := p.t.tags, p.t.switches
	if tags != nil {
		tags = tags[:len(ctr)]
	}
	if switches != nil {
		switches = switches[:len(ctr)]
	}
	h, hm := p.hist.bits, histMask(p.hist.len)
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var lastCol uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		idx := int(h) & (len(ctr) - 1)
		c := ctr[idx]
		col := tagReadU(tags, switches, idx, pc)
		bad := uint64(c>>1) ^ o
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
		ctr[idx] = ctrStep(c, o, 1)
		h = (h<<1 | o) & hm
		lastCol = col
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = lastCol != 0
}

// RunBlock implements BatchSim: gshare with a local history register.
func (p *GShare) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	ctr := p.t.ctr
	if len(ctr) == 0 {
		return
	}
	// Indices are computed as int(x) & (len(ctr)-1) — the masking pattern the
	// prove pass recognizes — and tags/switches are clipped to len(ctr), so
	// the loop body carries no bounds checks.
	tags, switches := p.t.tags, p.t.switches
	if tags != nil {
		tags = tags[:len(ctr)]
	}
	if switches != nil {
		switches = switches[:len(ctr)]
	}
	h, hm := p.hist.bits, histMask(p.hist.len)
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var lastCol uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		idx := int(pcIndex(pc)^h) & (len(ctr) - 1)
		c := ctr[idx]
		col := tagReadU(tags, switches, idx, pc)
		bad := uint64(c>>1) ^ o
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
		ctr[idx] = ctrStep(c, o, 1)
		h = (h<<1 | o) & hm
		lastCol = col
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = lastCol != 0
}

// RunBlock implements BatchSim: the agree mechanism, bias map included.
// First-encounter bias installation happens at the event's update point,
// exactly as in the scalar path.
func (p *Agree) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	ctr := p.t.ctr
	if len(ctr) == 0 {
		return
	}
	// Indices are computed as int(x) & (len(ctr)-1) — the masking pattern the
	// prove pass recognizes — and tags/switches are clipped to len(ctr), so
	// the loop body carries no bounds checks.
	tags, switches := p.t.tags, p.t.switches
	if tags != nil {
		tags = tags[:len(ctr)]
	}
	if switches != nil {
		switches = switches[:len(ctr)]
	}
	bias := p.bias
	h, hm := p.hist.bits, histMask(p.hist.len)
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	last := false
	for i, pc := range pcs {
		outcome := taken[i]
		idx := int(pcIndex(pc)^h) & (len(ctr) - 1)
		c := ctr[idx]
		collided := tagRead(tags, switches, idx, pc)
		agree := c >= ctrThreshold
		b, known := bias[pc]
		pred := agree
		if known {
			pred = b == agree
		} else {
			bias[pc] = outcome
			b = outcome
		}
		a.tk += b2u(outcome)
		a.score(i, pred == outcome, collided)
		ctrUp(ctr, idx, outcome == b)
		h = shiftHist(h, outcome, hm)
		last = collided
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = last
}

// RunBlock implements BatchSim: bi-mode with the choice and both direction
// banks flattened. The selected direction bank is trained with the outcome;
// the choice table is trained unless it was wrong while the selected bank
// still predicted correctly — the scalar policy verbatim.
func (p *BiMode) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	cCtr := p.choice.ctr
	if len(cCtr) == 0 {
		return
	}
	cTags, cSw := p.choice.tags, p.choice.switches
	if cTags != nil {
		cTags = cTags[:len(cCtr)]
	}
	if cSw != nil {
		cSw = cSw[:len(cCtr)]
	}
	d0, d1 := p.direction[0], p.direction[1]
	h, hm := p.hist.bits, histMask(p.hist.len)
	taken = taken[:len(pcs)]
	dirs := [2]*table{d0, d1}
	var a acc
	a.init(out, len(pcs))
	var lastCol uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		ci := int(pcIndex(pc)) & (len(cCtr) - 1)
		di := int(pcIndex(pc)^h) & (len(cCtr) - 1)
		cc := cCtr[ci]
		colC := tagReadU(cTags, cSw, ci, pc)
		choice := uint64(cc >> 1)
		bank := dirs[choice&1] // branch-free bank select
		dc := bank.ctr[di]
		colD := tagReadU(bank.tags, bank.switches, di, pc)
		bad := uint64(dc>>1) ^ o
		col := colC | colD
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
		bank.ctr[di] = ctrStep(dc, o, 1)
		// Choice trains unless it was wrong while the selected bank was
		// right: enable = !((choice != outcome) && correct).
		cCtr[ci] = ctrStep(cc, o, 1&^((choice^o)&(bad^1)))
		h = (h<<1 | o) & hm
		lastCol = col
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = lastCol != 0
}

// RunBlock implements BatchSim: e-gskew majority vote with the enhanced
// partial-update policy (re-enforce agreeing banks on a correct prediction,
// train all banks on a misprediction).
func (p *GSkew) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	b0, b1, b2 := p.banks[0], p.banks[1], p.banks[2]
	ctr0 := b0.ctr
	if len(ctr0) == 0 {
		return
	}
	// All banks are the same size; clipping every slice to len(ctr0) plus
	// masked indexing lets the prove pass drop the loop's bounds checks.
	ctr1, ctr2 := b1.ctr[:len(ctr0)], b2.ctr[:len(ctr0)]
	tags0, tags1, tags2 := b0.tags, b1.tags, b2.tags
	sw0, sw1, sw2 := b0.switches, b1.switches, b2.switches
	if tags0 != nil {
		tags0, tags1, tags2 = tags0[:len(ctr0)], tags1[:len(ctr0)], tags2[:len(ctr0)]
	}
	if sw0 != nil {
		sw0, sw1, sw2 = sw0[:len(ctr0)], sw1[:len(ctr0)], sw2[:len(ctr0)]
	}

	n, hlen := p.n, p.hist.len
	h, hm := p.hist.bits, histMask(hlen)
	// The skewing functions, fused: skewIndex is too large to inline once
	// hFunc/hInv fold into it, so the kernel expands H and H⁻¹ by hand with
	// the shift amounts and masks hoisted out of the loop. newTable enforces
	// ≥4 entries, so n ≥ 2 and the LFSR rotate never degenerates.
	un := uint(n)
	n1, n2 := un-1, un-2
	nm := (uint64(1) << un) - 1
	var fold uint64 // all-ones when history is wider than the index
	if hlen > n {
		fold = ^uint64(0)
	}
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var lastCol uint64
	for i, pc := range pcs {
		outcome := taken[i]
		pci := pcIndex(pc)
		i0 := int(pci) & (len(ctr0) - 1)
		hh := h & hm
		v1 := (pci>>un ^ hh>>un&fold) & nm
		v2 := (pci ^ hh) & nm
		hv1 := v1>>1 | (v1^v1>>n1)&1<<n1        // H(v1)
		iv2 := (v2<<1 | (v2>>n1^v2>>n2)&1) & nm // H⁻¹(v2)
		iv1 := (v1<<1 | (v1>>n1^v1>>n2)&1) & nm // H⁻¹(v1)
		hv2 := v2>>1 | (v2^v2>>n1)&1<<n1        // H(v2)
		i1 := int(hv1^iv2^v1) & (len(ctr0) - 1) // f1
		i2 := int(iv1^hv2^v2) & (len(ctr0) - 1) // f2

		// All counter loads issue before any tag store, so the independent
		// bank accesses overlap instead of serializing behind the store
		// buffer — these random loads are the kernel's critical path.
		c0, c1, c2 := ctr0[i0], ctr1[i1], ctr2[i2]
		col0 := tagReadU(tags0, sw0, i0, pc)
		col1 := tagReadU(tags1, sw1, i1, pc)
		col2 := tagReadU(tags2, sw2, i2, pc)

		// Majority vote, score and the enhanced partial-update policy in 0/1
		// arithmetic: on a correct prediction only the agreeing banks
		// re-enforce, on a misprediction every bank trains.
		o := b2u(outcome)
		q0, q1, q2 := uint64(c0>>1), uint64(c1>>1), uint64(c2>>1)
		maj := q0&q1 | q1&q2 | q0&q2
		bad := maj ^ o
		col := col0 | col1 | col2
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
		ctr0[i0] = ctrStep(c0, o, bad|1&^(q0^o))
		ctr1[i1] = ctrStep(c1, o, bad|1&^(q1^o))
		ctr2[i2] = ctrStep(c2, o, bad|1&^(q2^o))
		h = (h<<1 | o) & hm
		lastCol = col
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = lastCol != 0
}

// RunBlock implements BatchSim: 2bcgskew with all four banks flattened and
// the paper's partial-update policy fused per event — train every c-gskew
// bank on a bad prediction, re-enforce the participants on a good one, and
// train META only when its two components disagreed.
func (p *TwoBcGskew) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	if len(pcs) == 0 {
		return
	}
	bim, g0, g1, meta := p.bim, p.g0, p.g1, p.meta
	bc := bim.ctr
	if len(bc) == 0 {
		return
	}
	// All four banks are the same size; clipping every slice to len(bc) plus
	// masked indexing lets the prove pass drop the loop's bounds checks.
	g0c, g1c, mc := g0.ctr[:len(bc)], g1.ctr[:len(bc)], meta.ctr[:len(bc)]
	bTags, g0Tags, g1Tags, mTags := bim.tags, g0.tags, g1.tags, meta.tags
	bSw, g0Sw, g1Sw, mSw := bim.switches, g0.switches, g1.switches, meta.switches
	if bTags != nil {
		bTags, g0Tags = bTags[:len(bc)], g0Tags[:len(bc)]
		g1Tags, mTags = g1Tags[:len(bc)], mTags[:len(bc)]
	}
	if bSw != nil {
		bSw, g0Sw = bSw[:len(bc)], g0Sw[:len(bc)]
		g1Sw, mSw = g1Sw[:len(bc)], mSw[:len(bc)]
	}
	n := p.n
	hG0, hG1 := p.hG0, p.hG1
	metaMask := histMask(p.hMeta)
	h, hm := p.hist.bits, histMask(p.hist.len)
	// Fused skewing functions, as in GSkew.RunBlock: H and H⁻¹ expanded by
	// hand (skewIndex does not inline), shift amounts and history masks
	// hoisted. G0 takes f0 = H(v1)^H⁻¹(v2)^v2, G1 takes f1 = H(w1)^H⁻¹(w2)^w1,
	// each over its own history length. n ≥ 2 always (newTable floor).
	un := uint(n)
	n1, n2 := un-1, un-2
	nm := (uint64(1) << un) - 1
	hm0, hm1 := histMask(hG0), histMask(hG1)
	var fold0, fold1 uint64 // all-ones when the history is wider than the index
	if hG0 > n {
		fold0 = ^uint64(0)
	}
	if hG1 > n {
		fold1 = ^uint64(0)
	}
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var lastCol uint64
	for i, pc := range pcs {
		outcome := taken[i]
		pci := pcIndex(pc)
		i0 := int(pci) & (len(bc) - 1)
		h0 := h & hm0
		v1 := (pci>>un ^ h0>>un&fold0) & nm
		v2 := (pci ^ h0) & nm
		hv1 := v1>>1 | (v1^v1>>n1)&1<<n1        // H(v1)
		iv2 := (v2<<1 | (v2>>n1^v2>>n2)&1) & nm // H⁻¹(v2)
		i1 := int(hv1^iv2^v2) & (len(bc) - 1)   // f0
		h1 := h & hm1
		w1 := (pci>>un ^ h1>>un&fold1) & nm
		w2 := (pci ^ h1) & nm
		hw1 := w1>>1 | (w1^w1>>n1)&1<<n1        // H(w1)
		iw2 := (w2<<1 | (w2>>n1^w2>>n2)&1) & nm // H⁻¹(w2)
		i2 := int(hw1^iw2^w1) & (len(bc) - 1)   // f1
		i3 := int(pci^(h&metaMask)) & (len(bc) - 1)

		// Counter loads first, tag read-modify-writes after: four banks mean
		// eight random lines per event, and issuing the independent loads
		// back-to-back is what lets the memory system overlap them.
		cb, c0, c1, cm := bc[i0], g0c[i1], g1c[i2], mc[i3]
		colB := tagReadU(bTags, bSw, i0, pc)
		col0 := tagReadU(g0Tags, g0Sw, i1, pc)
		col1 := tagReadU(g1Tags, g1Sw, i2, pc)
		colM := tagReadU(mTags, mSw, i3, pc)

		// Vote, choose, score and train entirely in 0/1 arithmetic — these
		// bits are the simulated branch's own unpredictability, so any
		// control flow on them mispredicts on the host.
		o := b2u(outcome)
		pb, p0, p1 := uint64(cb>>1), uint64(c0>>1), uint64(c1>>1)
		maj := pb&p0 | p0&p1 | pb&p1
		useG := uint64(cm >> 1)
		pred := pb ^ useG&(pb^maj)
		bad := pred ^ o
		col := colB | col0 | col1 | colM
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

		// The partial-update policy as enable masks: on a bad prediction all
		// three c-gskew banks train; on a good one the participants that
		// voted correctly re-enforce (BIM also covers the META-chose-bimodal
		// case, where pred == pb == outcome); META trains only when its two
		// components disagreed, toward whichever was right.
		eB := bad | 1&^(pb^o)
		e0 := bad | useG&^(p0^o)
		e1 := bad | useG&^(p1^o)
		bc[i0] = ctrStep(cb, o, eB)
		g0c[i1] = ctrStep(c0, o, e0)
		g1c[i2] = ctrStep(c1, o, e1)
		mc[i3] = ctrStep(cm, 1^maj^o, pb^maj)

		h = (h<<1 | o) & hm
		lastCol = col
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = lastCol != 0
}
