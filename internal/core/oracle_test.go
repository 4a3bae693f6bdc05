package core_test

import (
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
)

// refGshare is a deliberately naive reference model of the paper's scheme,
// written from the paper's text and shared with nothing in the simulator:
// a textbook gshare (2^m two-bit counters starting weakly not-taken,
// indexed by the word address XOR an m-bit global history), the two hint
// bits per branch (use-static, direction), and the three things a hinted
// branch may do to the history register. A hinted branch takes its static
// direction and neither reads nor trains the counters. An owner array
// counts collisions: a dynamic branch collides when its counter was last
// read by a different branch.
type refGshare struct {
	m        uint
	counters []int
	owner    []uint64
	owned    []bool
	history  uint64
	hints    map[uint64]bool // pc -> static direction; presence is the use-static bit
	policy   string          // "noshift", "shift" or "shiftstatic"

	mispredicts, collisions uint64
}

func newRefGshare(m uint, hints map[uint64]bool, policy string) *refGshare {
	r := &refGshare{
		m: m, counters: make([]int, 1<<m), owner: make([]uint64, 1<<m), owned: make([]bool, 1<<m),
		hints: hints, policy: policy,
	}
	for i := range r.counters {
		r.counters[i] = 1
	}
	return r
}

func (r *refGshare) pushHistory(bit bool) {
	r.history <<= 1
	if bit {
		r.history |= 1
	}
	r.history &= 1<<r.m - 1
}

// step predicts and resolves one branch, returning the prediction.
func (r *refGshare) step(pc uint64, taken bool) bool {
	if static, hinted := r.hints[pc]; hinted {
		if static != taken {
			r.mispredicts++
		}
		switch r.policy {
		case "shift":
			r.pushHistory(taken)
		case "shiftstatic":
			r.pushHistory(static)
		}
		return static
	}
	index := (pc>>2 ^ r.history) & (1<<r.m - 1)
	if r.owned[index] && r.owner[index] != pc {
		r.collisions++
	}
	r.owner[index], r.owned[index] = pc, true
	prediction := r.counters[index] >= 2
	if prediction != taken {
		r.mispredicts++
	}
	if taken && r.counters[index] < 3 {
		r.counters[index]++
	}
	if !taken && r.counters[index] > 0 {
		r.counters[index]--
	}
	r.pushHistory(taken)
	return prediction
}

// oracleCase builds a synthetic stream from seed over the given number of
// sites, with hints on about half of them in both directions, runs it
// through the reference model and through the hinted kernel (gshare of
// 2^m counters, blocks of bs events), and reports the first disagreement.
func oracleCase(t *testing.T, seed uint64, n, sites int, m uint, policy core.ShiftPolicy, bs int) {
	t.Helper()
	pcs, taken := make([]uint64, n), make([]bool, n)
	bias := make([]uint64, sites)
	s := seed | 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := range bias {
		bias[i] = next() % 8
	}
	for i := range pcs {
		site := next() % uint64(sites)
		pcs[i] = 0x10000 + site*4
		taken[i] = next()%8 >= bias[site]
	}
	hintMap := map[uint64]bool{}
	hints := core.NewHintDB("w", "oracle", "t")
	for site := uint64(0); site < uint64(sites); site++ {
		if r := next(); r%2 == 0 {
			pc := 0x10000 + site*4
			hintMap[pc] = r>>1%2 == 0
			hints.Set(pc, hintMap[pc])
		}
	}

	ref := newRefGshare(m, hintMap, policy.String())
	g := predictor.NewGShare(1 << m / 4)
	c := core.NewCombined(g, hints, policy)
	c.EnableCollisionTracking()
	k, native := predictor.Batch(c)
	if !native {
		t.Fatal("hinted gshare wrapper has no native kernel")
	}
	if bs <= 0 {
		bs = n
	}
	var out predictor.BlockMetrics
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		out.Correct = make([]bool, hi-lo)
		k.RunBlock(pcs[lo:hi], taken[lo:hi], &out)
		for j, correct := range out.Correct {
			i := lo + j
			if want, got := ref.step(pcs[i], taken[i]), taken[i] == correct; got != want {
				t.Fatalf("seed %d m=%d %s bs=%d event %d (pc %#x): kernel predicts %v, reference %v",
					seed, m, policy, bs, i, pcs[i], got, want)
			}
		}
	}
	if out.Mispredicts != ref.mispredicts || out.Collisions != ref.collisions {
		t.Fatalf("seed %d m=%d %s bs=%d: kernel %d mispredicts / %d collisions, reference %d / %d",
			seed, m, policy, bs, out.Mispredicts, out.Collisions, ref.mispredicts, ref.collisions)
	}
}

// TestHintedKernelMatchesReference runs fixed cases of the oracle check:
// every shift policy, tables small enough to alias heavily and large
// enough not to, across block sizes.
func TestHintedKernelMatchesReference(t *testing.T) {
	for _, policy := range []core.ShiftPolicy{core.NoShift, core.ShiftOutcome, core.ShiftStatic} {
		for _, m := range []uint{4, 8, 12} {
			for _, bs := range []int{1, 7, 1000, 0} {
				oracleCase(t, uint64(m)*31+uint64(bs), 5000, 300, m, policy, bs)
			}
		}
	}
}

// FuzzHintedKernelVsReference compares the hinted kernel with the
// reference model on fuzz-chosen synthetic streams, table sizes, shift
// policies and block sizes.
func FuzzHintedKernelVsReference(f *testing.F) {
	f.Add(uint64(1), uint16(2000), uint8(50), uint8(6), uint8(0), uint16(0))
	f.Add(uint64(7), uint16(500), uint8(200), uint8(4), uint8(1), uint16(3))
	f.Add(uint64(42), uint16(3000), uint8(9), uint8(10), uint8(2), uint16(64))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, sites, m, policy uint8, bs uint16) {
		oracleCase(t, seed, int(n), int(sites)+1, uint(m%13)+2, core.ShiftPolicy(policy%3), int(bs))
	})
}
