package trace

import (
	"bytes"
	"errors"
	"testing"
)

// testChunk encodes a small branch stream and returns the raw chunk.
func testChunk(t *testing.T) []byte {
	t.Helper()
	var w ChunkWriter
	w.Branch(0x1_2000_0000, true)
	w.Ops(12)
	w.Branch(0x1_2000_0010, false)
	w.Branch(0x1_2000_0004, true)
	c := w.Cut()
	if c == nil {
		t.Fatal("empty chunk")
	}
	return c
}

// framedFile writes chunks through a FileWriter and returns the file and
// each chunk's reported payload offset.
func framedFile(t *testing.T, chunks ...[]byte) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for _, c := range chunks {
		off, err := fw.WriteChunk(c, Checksum(c))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if fw.Size() != int64(buf.Len()) {
		t.Fatalf("Size = %d, file has %d bytes", fw.Size(), buf.Len())
	}
	return buf.Bytes(), offs
}

// replayFile reads a trace file into an event log.
func replayFile(data []byte) (*eventLog, error) {
	var got eventLog
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return &got, err
	}
	_, err = r.Replay(&got)
	return &got, err
}

func TestFrameRoundTrip(t *testing.T) {
	payload := testChunk(t)
	file, offs := framedFile(t, payload, payload)
	if !bytes.HasPrefix(file, []byte("BTRC3\n")) {
		t.Fatalf("file starts %q, want the BTRC3 header", file[:6])
	}
	// The reported offsets address the bare payloads, as spill cursors
	// read them with ReadAt.
	for i, off := range offs {
		if got := file[off : off+int64(len(payload))]; !bytes.Equal(got, payload) {
			t.Fatalf("payload %d at offset %d = %x, want %x", i, off, got, payload)
		}
	}
	if end := offs[1] + int64(len(payload)); end != int64(len(file)) {
		t.Fatalf("last payload ends at %d, file has %d bytes", end, len(file))
	}
	// Two concatenated frames decode in sequence.
	got, err := replayFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want eventLog
	for range offs {
		if err := DecodeChunk(payload, &want); err != nil {
			t.Fatal(err)
		}
	}
	if len(got.branches()) != 6 || got.totals() != want.totals() {
		t.Fatalf("replayed %d branches, totals %+v; want 6, %+v", len(got.branches()), got.totals(), want.totals())
	}
}

// TestFrameDetectsEverySingleBitFlip flips every bit of a one-chunk file:
// a flip in the header is a bad magic, a flip in the frame is corruption,
// and either way not one event of the chunk is delivered.
func TestFrameDetectsEverySingleBitFlip(t *testing.T) {
	file, _ := framedFile(t, testChunk(t))
	if _, err := replayFile(file); err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	for bit := 0; bit < len(file)*8; bit++ {
		mutated := append([]byte(nil), file...)
		mutated[bit/8] ^= 1 << (bit % 8)
		got, err := replayFile(mutated)
		want := ErrCorrupt
		if bit < len(fileMagic)*8 {
			want = ErrBadMagic
		}
		if !errors.Is(err, want) {
			t.Fatalf("bit flip at %d: err = %v, want %v", bit, err, want)
		}
		if len(got.events) != 0 {
			t.Fatalf("bit flip at %d delivered %d events of the corrupt chunk", bit, len(got.events))
		}
	}
}

// TestFrameTornTail cuts a two-chunk file at every byte: a cut between
// frames is a shorter valid file, a cut inside one is ErrCorrupt after only
// the whole frames before it, and so are bytes trailing the last frame.
func TestFrameTornTail(t *testing.T) {
	payload := testChunk(t)
	file, offs := framedFile(t, payload, payload)
	firstEnd := int(offs[0]) + len(payload)
	for cut := len(fileMagic) + 1; cut < len(file); cut++ {
		got, err := replayFile(file[:cut])
		if cut == firstEnd {
			if err != nil || len(got.branches()) != 3 {
				t.Fatalf("cut between frames: %d branches, err %v; want the first chunk's 3", len(got.branches()), err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn file of %d/%d bytes: err = %v, want ErrCorrupt", cut, len(file), err)
		}
		want := 0
		if cut > firstEnd {
			want = 3
		}
		if n := len(got.branches()); n != want {
			t.Fatalf("torn file of %d bytes delivered %d branches, want %d", cut, n, want)
		}
	}
	for _, tail := range [][]byte{{0x00}, {0x00, 0, 0, 0, 0}, {0x05, 1, 2}, file[len(fileMagic) : firstEnd-1]} {
		if _, err := replayFile(append(append([]byte(nil), file...), tail...)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing bytes %x: err = %v, want ErrCorrupt", tail, err)
		}
	}
}

func TestVerify(t *testing.T) {
	payload := testChunk(t)
	if err := Verify(payload, Checksum(payload)); err != nil {
		t.Fatal(err)
	}
	if err := Verify(payload, Checksum(payload)+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad crc: err = %v, want ErrCorrupt", err)
	}
}

// TestMalformedChunkIsCorrupt pins the sentinel relationship: structural
// chunk corruption matches ErrCorrupt too, so quarantine policies need one
// errors.Is check.
func TestMalformedChunkIsCorrupt(t *testing.T) {
	if !errors.Is(ErrMalformedChunk, ErrCorrupt) {
		t.Fatal("ErrMalformedChunk does not wrap ErrCorrupt")
	}
	err := DecodeChunk([]byte{0x80}, Discard)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrMalformedChunk) {
		t.Fatalf("structural error %v does not match both sentinels", err)
	}
}

// TestFramedFileReader proves the file framing: a FileWriter's frames
// replay identically to the raw stream, and a flipped bit anywhere in a
// frame surfaces as ErrCorrupt with zero events delivered from the corrupt
// chunk.
func TestFramedFileReader(t *testing.T) {
	var w ChunkWriter
	var want eventLog
	rec := Tee(&want, &w)
	rec.Branch(0x8000, true)
	rec.Ops(12)
	rec.Branch(0x8004, false)
	first := w.Cut()
	rec.Ops(3)
	rec.Branch(1<<62, true)
	second := w.Cut()

	file, offs := framedFile(t, first, second)
	got, err := replayFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wantBr, gotBr := want.branches(), got.branches()
	if len(wantBr) != len(gotBr) {
		t.Fatalf("branch count: got %d, want %d", len(gotBr), len(wantBr))
	}
	for i := range wantBr {
		if wantBr[i] != gotBr[i] {
			t.Errorf("branch %d: got %+v, want %+v", i, gotBr[i], wantBr[i])
		}
	}
	if got.totals() != want.totals() {
		t.Errorf("totals: got %+v, want %+v", got.totals(), want.totals())
	}

	// Corrupt one payload byte of the second frame: the first chunk's
	// events replay, then the reader reports corruption.
	mutated := append([]byte(nil), file...)
	mutated[offs[1]] ^= 0x01
	partial, err := replayFile(mutated)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrCorrupt", err)
	}
	if len(partial.branches()) != 2 {
		t.Fatalf("corrupt second chunk leaked events: got %d branches, want the first chunk's 2", len(partial.branches()))
	}

	// Torn tail: truncating the file mid-frame is corruption, not EOF.
	if _, err := replayFile(file[:len(file)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file: err = %v, want ErrCorrupt", err)
	}
}
