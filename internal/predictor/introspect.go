package predictor

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// TableStats is one counter table's state snapshot, produced by Introspect.
// The obs layer's TableStat mirrors this shape field-for-field so the two
// packages need not import each other.
type TableStats struct {
	// Name identifies the table within its predictor ("pht", "choice",
	// "dir_nt", "dir_t", "bim", "g0", "g1", "meta"; for the tagged/neural
	// predictors "base", "t<histLen>" and "weights").
	Name string
	// Entries is the table's capacity in counters.
	Entries int
	// Occupied counts entries read at least once (known via the collision
	// tags; EnableTableStats turns those on).
	Occupied int
	// Counters is the 2-bit counter state distribution: Counters[s] entries
	// currently hold state s (0 strong not-taken … 3 strong taken).
	Counters [4]uint64
	// Entropy is the Shannon entropy of Counters in bits: 0 when every
	// counter sits in one state, 2 at the uniform distribution. A trained
	// biased table drifts toward low entropy; aliasing pressure keeps it up.
	Entropy float64
	// SharingHist is a log₂-bucketed histogram of per-entry ownership
	// switches: bucket 0 counts entries never re-claimed by a different
	// branch, bucket k entries with 2^(k-1) ≤ switches < 2^k. Buckets sum to
	// Entries; the per-entry sharing degree behind the paper's collision
	// counts.
	SharingHist []uint64
}

// Introspector is implemented by predictors whose counter tables can be
// sampled. EnableTableStats turns on the per-entry instrumentation the
// snapshot needs (collision tags plus ownership-switch counts); Introspect
// then snapshots every table. Sampling is O(entries) — callers take it at
// interval boundaries, never per branch.
//
// Coverage: bimodal, ghist, gshare, bimode and 2bcgskew expose their 2-bit
// PHTs directly; tage folds its 3-bit tagged banks onto the 2-bit scale
// (full resolution lives in IntrospectTagged) and perceptron classifies
// each weight vector by its bias weight. The remaining registered schemes
// (agree, gskew, yags, local, mcfarling, taken, nottaken) are exempt —
// TestEveryRegisteredSpecIntrospects keeps that list explicit so new
// predictors cannot silently fall out of telemetry.
type Introspector interface {
	EnableTableStats()
	Introspect() []TableStats
}

// stats snapshots one table: counter states by bit-plane popcount, and
// occupancy and the sharing histogram in branch-free passes, so a snapshot
// costs a few operations per eight entries rather than a data-dependent
// branch per entry.
func (t *table) stats(name string) TableStats {
	s := TableStats{Name: name, Entries: len(t.ctr)}
	countStates(t.ctr, &s.Counters)
	s.Occupied = occupied(t.tags)
	s.Entropy = counterEntropy(s.Counters)
	if t.switches != nil {
		// Most entries never switch owner: count only the nonzero ones
		// and put the rest in bucket 0.
		var hist [33]uint64
		var switched uint64
		for _, sw := range t.switches {
			if sw != 0 {
				hist[bits.Len32(sw)]++
				switched++
			}
		}
		hist[0] = uint64(len(t.switches)) - switched
		s.SharingHist = trimHist(hist[:])
	}
	return s
}

// countStates adds to counts[v] the number of bytes of b whose low two
// bits hold v (higher bits are ignored). Eight bytes at a time: the two bit
// planes of a little-endian word's eight counters come out with two masks,
// and three popcounts of their conjunctions classify all eight.
func countStates(b []uint8, counts *[4]uint64) {
	const lsb = 0x0101010101010101
	var n1, n2, n3 int
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		lo, hi := w&lsb, w>>1&lsb
		n1 += bits.OnesCount64(lo &^ hi)
		n2 += bits.OnesCount64(hi &^ lo)
		n3 += bits.OnesCount64(lo & hi)
	}
	counts[0] += uint64(i - n1 - n2 - n3)
	counts[1] += uint64(n1)
	counts[2] += uint64(n2)
	counts[3] += uint64(n3)
	for _, c := range b[i:] {
		counts[c&3]++
	}
}

// occupied counts the nonzero tags, branch-free.
func occupied(tags []uint64) int {
	var n uint64
	for _, tag := range tags {
		n += nz(tag)
	}
	return int(n)
}

// counterEntropy is the Shannon entropy, in bits, of a counter-state count
// vector.
func counterEntropy(counts [4]uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// EnableTableStats implements Introspector.
func (p *Bimodal) EnableTableStats() { p.t.enableStats() }

// Introspect implements Introspector.
func (p *Bimodal) Introspect() []TableStats { return []TableStats{p.t.stats("pht")} }

// EnableTableStats implements Introspector.
func (p *GHist) EnableTableStats() { p.t.enableStats() }

// Introspect implements Introspector.
func (p *GHist) Introspect() []TableStats { return []TableStats{p.t.stats("pht")} }

// EnableTableStats implements Introspector.
func (p *GShare) EnableTableStats() { p.t.enableStats() }

// Introspect implements Introspector.
func (p *GShare) Introspect() []TableStats { return []TableStats{p.t.stats("pht")} }

// EnableTableStats implements Introspector.
func (p *BiMode) EnableTableStats() {
	p.choice.enableStats()
	p.direction[0].enableStats()
	p.direction[1].enableStats()
}

// Introspect implements Introspector.
func (p *BiMode) Introspect() []TableStats {
	return []TableStats{
		p.choice.stats("choice"),
		p.direction[0].stats("dir_nt"),
		p.direction[1].stats("dir_t"),
	}
}

// EnableTableStats implements Introspector.
func (p *TwoBcGskew) EnableTableStats() {
	p.bim.enableStats()
	p.g0.enableStats()
	p.g1.enableStats()
	p.meta.enableStats()
}

// Introspect implements Introspector.
func (p *TwoBcGskew) Introspect() []TableStats {
	return []TableStats{
		p.bim.stats("bim"),
		p.g0.stats("g0"),
		p.g1.stats("g1"),
		p.meta.stats("meta"),
	}
}

// EnableTableStats implements Introspector and TaggedIntrospector: it turns
// on base-table instrumentation plus the per-bank stream counters.
func (t *TAGE) EnableTableStats() {
	t.base.enableStats()
	t.statsOn = true
}

// Introspect implements Introspector. The bimodal base reports like any
// 2-bit PHT; each tagged bank folds its 3-bit counters onto the 2-bit scale
// ((ctr+4)>>1, so -4/-3 → strong not-taken … 2/3 → strong taken) and counts
// allocated entries (nonzero tag) as occupied. Full-resolution counter,
// useful-bit and tag-flow state is in IntrospectTagged.
func (t *TAGE) Introspect() []TableStats {
	out := make([]TableStats, 0, len(t.comps)+1)
	out = append(out, t.base.stats("base"))
	for i := range t.comps {
		c := &t.comps[i]
		s := TableStats{Name: tageBankName(c.histLen), Entries: len(c.e)}
		for _, en := range c.e {
			s.Counters[(int(en.ctr)+4)>>1]++
			s.Occupied += int(nz(uint64(en.tag)))
		}
		s.Entropy = counterEntropy(s.Counters)
		out = append(out, s)
	}
	return out
}

// IntrospectTagged implements TaggedIntrospector.
func (t *TAGE) IntrospectTagged() []TaggedBankStats {
	out := make([]TaggedBankStats, 0, len(t.comps)+1)
	base := TaggedBankStats{
		Name:     "base",
		Entries:  t.base.entries(),
		Provider: t.sBaseProv,
	}
	var baseCtr [4]uint64
	countStates(t.base.ctr, &baseCtr)
	base.Ctr = baseCtr[:]
	base.Occupied = occupied(t.base.tags)
	out = append(out, base)
	for i := range t.comps {
		c := &t.comps[i]
		b := TaggedBankStats{
			Name:       tageBankName(c.histLen),
			Entries:    len(c.e),
			HistLen:    c.histLen,
			TagBits:    c.tagBits,
			Hits:       c.sHit,
			Misses:     c.sMiss,
			Provider:   c.sProv,
			AltUsed:    c.sAlt,
			Allocs:     c.sAlloc,
			AllocFails: c.sAllocFail,
		}
		b.Ctr = make([]uint64, 8)
		b.Useful = make([]uint64, 4)
		for _, en := range c.e {
			b.Ctr[int(en.ctr)+4]++
			b.Useful[en.u&3]++
			b.Occupied += int(nz(uint64(en.tag)))
		}
		out = append(out, b)
	}
	return out
}

// tageBankName names a tagged bank after its history length ("t4" … "t64").
func tageBankName(histLen int) string {
	// Avoids fmt: this runs at every table-stats interval boundary.
	buf := [8]byte{'t'}
	n := 1
	if histLen >= 10 {
		buf[n] = byte('0' + histLen/10)
		n++
	}
	buf[n] = byte('0' + histLen%10)
	n++
	return string(buf[:n])
}

// EnableTableStats implements Introspector and TaggedIntrospector: it turns
// on the occupancy tags and the margin-histogram accumulation.
func (p *Perceptron) EnableTableStats() {
	if p.dbgTags == nil {
		p.dbgTags = make([]uint64, p.entries())
	}
	p.statsOn = true
}

// Introspect implements Introspector. A weight vector has no 2-bit counter,
// so each entry is classified by its bias weight: strong not-taken below
// -64, weak not-taken below 0, weak taken below +64, strong taken above
// (half saturation as the strong/weak boundary). The weight-magnitude and
// margin detail is in IntrospectTagged.
func (p *Perceptron) Introspect() []TableStats {
	s := TableStats{Name: "weights", Entries: p.entries()}
	for i := 0; i < len(p.weights); i += perceptronStride {
		switch w0 := int8(p.weights[i]); {
		case w0 <= -64:
			s.Counters[0]++
		case w0 < 0:
			s.Counters[1]++
		case w0 < 64:
			s.Counters[2]++
		default:
			s.Counters[3]++
		}
	}
	s.Occupied = occupied(p.dbgTags)
	s.Entropy = counterEntropy(s.Counters)
	return []TableStats{s}
}

// IntrospectTagged implements TaggedIntrospector.
func (p *Perceptron) IntrospectTagged() []TaggedBankStats {
	b := TaggedBankStats{
		Name:    "weights",
		Entries: p.entries(),
		HistLen: perceptronHistLen,
	}
	hist := make([]uint64, 9) // |w| ≤ 128 → Len ≤ 8
	for _, w := range p.weights {
		if w == 127 || w == 0x80 { // +127, -128
			b.Saturated++
		}
		m := int(int8(w))
		if m < 0 {
			m = -m
		}
		hist[bits.Len(uint(m))]++
	}
	b.Ctr = trimHist(hist)
	b.Margin = trimHist(p.marginHist[:])
	b.Occupied = occupied(p.dbgTags)
	return []TaggedBankStats{b}
}
