package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReaderRobustness feeds arbitrary bytes to the trace reader, through
// both of its decode paths: it must either reject them or terminate
// cleanly, never panic or loop.
func FuzzReaderRobustness(f *testing.F) {
	// seed with a valid trace
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Branch(0x1200_0000, true)
	w.Ops(12)
	w.Branch(0x1200_0010, false)
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte("BTRC3\n"))
	f.Add([]byte("BTRC3\n\x00"))
	f.Add([]byte("garbage"))
	f.Add(valid[:len(valid)-2]) // torn tail
	// retired versions, rejected at the header
	f.Add([]byte("BTRC1\n\x03\x00\x05"))
	f.Add([]byte("BTRC2\n\x01\x10\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range []Recorder{&Counts{}, &blockRecorder{}} {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return
			}
			r.Replay(rec)
		}
	})
}

// blockRecorder is a flatRecorder that is also a BlockSink, so Replay
// feeds it through the block decoder; it flattens blocks the same way.
type blockRecorder struct{ flatRecorder }

func (b *blockRecorder) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	for i, pc := range pcs {
		b.Ops(ops[i])
		b.Branch(pc, taken[i])
	}
}

// FuzzRoundTrip checks write→read identity over arbitrary full 64-bit
// addresses: the pattern branch, ops, branch repeats reps+1 times at rising
// addresses, so large reps span several chunks.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1200_0000), true, uint64(3), uint16(0))
	f.Add(uint64(0), false, uint64(0), uint16(0))
	f.Add(uint64(math.MaxUint64-3), true, uint64(1)<<40, uint16(40_000))

	f.Fuzz(func(t *testing.T, pc uint64, taken bool, ops uint64, reps uint16) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var want Buffer
		rec := Tee(w, &want)
		for i := uint64(0); i <= uint64(reps); i++ {
			rec.Branch(pc+8*i, taken)
			rec.Ops(ops)
			rec.Branch(pc+8*i+4, !taken)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got Buffer
		counts, err := r.Replay(&got)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(want.Events) {
			t.Fatalf("replayed %d events, want %d", len(got.Events), len(want.Events))
		}
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got.Events[i], want.Events[i])
			}
		}
		if counts != want.Counts || got.Counts != want.Counts {
			t.Fatalf("counts = %+v (recorder %+v), want %+v", counts, got.Counts, want.Counts)
		}
	})
}
