package predictor

import (
	"testing"

	"branchsim/internal/xrand"
)

// refDot is the textbook perceptron output: the bias plus each weight
// signed by its history bit (+1 for a 1, -1 for a 0).
func refDot(w []int8, h uint64) int32 {
	sum := int32(w[0])
	for i := 1; i < len(w); i++ {
		if h>>(i-1)&1 == 1 {
			sum += int32(w[i])
		} else {
			sum -= int32(w[i])
		}
	}
	return sum
}

// refTrain steps the bias toward the outcome and each weight toward
// agreement of its history bit with the outcome, clamped to int8.
func refTrain(w []int8, h uint64, taken bool) {
	step := func(v int8, up bool) int8 {
		if up && v < 127 {
			return v + 1
		}
		if !up && v > -128 {
			return v - 1
		}
		return v
	}
	w[0] = step(w[0], taken)
	for i := 1; i < len(w); i++ {
		w[i] = step(w[i], (h>>(i-1)&1 == 1) == taken)
	}
}

func TestPerceptronDotMatchesReference(t *testing.T) {
	rng := xrand.New(16)
	const hm = 1<<perceptronHistLen - 1
	rows := [][perceptronStride]int8{}
	var lo, hi, alt [perceptronStride]int8
	for k := range lo {
		lo[k], hi[k] = -128, 127
		alt[k] = int8(-128 + 255*(k&1))
	}
	rows = append(rows, lo, hi, alt, [perceptronStride]int8{})
	for range 300 {
		var r [perceptronStride]int8
		for k := range r {
			switch rng.Intn(4) {
			case 0:
				r[k] = -128
			case 1:
				r[k] = 127
			default:
				r[k] = int8(rng.Uint32())
			}
		}
		rows = append(rows, r)
	}
	hists := []uint64{0, hm, 0x55555555 & hm, 0x2aaaaaaa}
	for range 20 {
		hists = append(hists, rng.Uint64()&hm)
	}

	const pc = 0x4000
	for ri, row := range rows {
		for _, h := range hists {
			want := refDot(row[:], h)
			var r [perceptronStride]byte
			for k, w := range row {
				r[k] = byte(w)
			}
			if got := perceptronDot(&r, h); got != want {
				t.Fatalf("row %d %v history %#x: dot %d, reference %d", ri, row, h, got, want)
			}
			for _, taken := range []bool{false, true} {
				// The kernel on one event: sum, prediction and the
				// trained row.
				p := NewPerceptron(1 << 10)
				idx := (pcIndex(pc) ^ pcIndex(pc)>>9) & p.mask
				copy(p.row(idx), r[:])
				p.hist.bits = h
				var out BlockMetrics
				p.RunBlock([]uint64{pc}, []bool{taken}, &out)
				if p.lSum != want {
					t.Fatalf("row %d history %#x: RunBlock sum %d, reference %d", ri, h, p.lSum, want)
				}
				bad := (want >= 0) != taken
				if p.lPred != (want >= 0) || (out.Mispredicts == 1) != bad {
					t.Fatalf("row %d history %#x taken %v: RunBlock predicted %v (%d mispredicts), reference sum %d",
						ri, h, taken, p.lPred, out.Mispredicts, want)
				}
				trained := row
				if mag := max(want, -want); bad || mag <= p.theta {
					refTrain(trained[:], h, taken)
				}
				for k, w := range p.row(idx) {
					if int8(w) != trained[k] {
						t.Fatalf("row %d history %#x taken %v: weight %d trained to %d, reference %d",
							ri, h, taken, k, int8(w), trained[k])
					}
				}
			}
		}
	}
}
