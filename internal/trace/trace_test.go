package trace

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"branchsim/internal/xrand"
)

func TestCountsAccumulate(t *testing.T) {
	var c Counts
	c.Branch(0x10, true)
	c.Branch(0x14, false)
	c.Branch(0x10, true)
	c.Ops(7)
	if c.Branches != 3 || c.TakenCount != 2 || c.Instructions != 10 {
		t.Fatalf("counts = %+v", c)
	}
	// 3 branches / 10 instructions = 300 CBRs/KI
	if got := c.CBRsPerKI(); math.Abs(got-300) > 1e-9 {
		t.Fatalf("CBRsPerKI = %v, want 300", got)
	}
}

func TestCountsEmpty(t *testing.T) {
	var c Counts
	if c.CBRsPerKI() != 0 {
		t.Fatalf("empty counts should report 0 CBRs/KI")
	}
}

func TestBufferStoresEvents(t *testing.T) {
	var b Buffer
	b.Branch(0x40, true)
	b.Ops(3)
	b.Branch(0x44, false)
	want := []Event{{PC: 0x40, Taken: true}, {PC: 0x44, Taken: false}}
	if len(b.Events) != 2 || b.Events[0] != want[0] || b.Events[1] != want[1] {
		t.Fatalf("events = %v", b.Events)
	}
	if b.Instructions != 5 {
		t.Fatalf("instructions = %d, want 5", b.Instructions)
	}
}

func TestTeeDuplicates(t *testing.T) {
	var a, b Buffer
	tee := Tee(&a, &b)
	tee.Branch(0x10, true)
	tee.Ops(4)
	if a.Branches != 1 || b.Branches != 1 || a.Instructions != 5 || b.Instructions != 5 {
		t.Fatalf("tee did not duplicate: a=%+v b=%+v", a.Counts, b.Counts)
	}
}

func TestDiscardAcceptsEverything(t *testing.T) {
	Discard.Branch(1, true)
	Discard.Ops(10)
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", d, got)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// roundTrip writes events (each followed by ops[i] instructions) to a
// trace file and reads it back, returning the replayed stream and the
// file's size in bytes.
func roundTrip(t *testing.T, events []Event, ops []uint64) (Counts, *Buffer, int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		w.Branch(e.PC, e.Taken)
		if i < len(ops) {
			w.Ops(ops[i])
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got Buffer
	counts, err := r.Replay(&got)
	if err != nil {
		t.Fatal(err)
	}
	return counts, &got, size
}

func TestFileRoundTrip(t *testing.T) {
	events := []Event{
		{0x1200_0000, true},
		{0x1200_0004, false},
		{0x1200_0004, true},
		{0xffff_ffff_fffc, true}, // big jump
		{0x10, false},            // big jump back
	}
	_, got, _ := roundTrip(t, events, []uint64{3, 0, 1 << 33})
	if len(got.Events) != len(events) {
		t.Fatalf("replayed %d events, want %d", len(got.Events), len(events))
	}
	for i := range events {
		if got.Events[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got.Events[i], events[i])
		}
	}
	if got.Instructions != uint64(len(events))+3+(1<<33) {
		t.Fatalf("instructions = %d", got.Instructions)
	}
}

// TestFileRoundTripProperty round-trips random full 64-bit addresses. The
// streams run up to 65535 events of ~10 bytes each, so most span several
// chunks; the fixed case at the end always does.
func TestFileRoundTripProperty(t *testing.T) {
	size := 0
	f := func(seed uint64, n uint16) bool {
		rng := xrand.New(seed)
		events := make([]Event, int(n))
		var ops []uint64
		for i := range events {
			events[i] = Event{PC: rng.Uint64(), Taken: rng.Bool(0.5)}
			ops = append(ops, uint64(rng.Intn(100)))
		}
		var got *Buffer
		_, got, size = roundTrip(t, events, ops)
		return slices.Equal(got.Events, events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if !f(1, 40_000) {
		t.Fatal("multi-chunk stream does not round-trip")
	}
	if size < 2*ChunkTarget {
		t.Fatalf("multi-chunk case wrote %d bytes, want at least two %d-byte chunks", size, ChunkTarget)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("NOTATRACEFILE"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestReaderRejectsRetiredVersions pins that files of the two retired
// versions are refused with a bad-magic error telling the user to
// re-record, whatever follows the header.
func TestReaderRejectsRetiredVersions(t *testing.T) {
	for _, head := range []string{"BTRC1\n", "BTRC2\n"} {
		_, err := NewReader(strings.NewReader(head + "\x03\x00\x05"))
		if !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("%q: err = %v, want ErrBadMagic asking to re-record", head, err)
		}
	}
}

func TestReaderShortHeader(t *testing.T) {
	_, err := NewReader(strings.NewReader("BT"))
	if err == nil {
		t.Fatalf("short header accepted")
	}
}

// TestReaderTruncatedOpsRecord frames a chunk ending in a bare ops marker
// under a valid checksum: the records themselves are malformed.
func TestReaderTruncatedOpsRecord(t *testing.T) {
	var cw ChunkWriter
	cw.Branch(0x10, true)
	chunk := append(cw.Cut(), chunkOps)
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteChunk(chunk, Checksum(chunk)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(Discard); !errors.Is(err, ErrMalformedChunk) {
		t.Fatalf("truncated ops record: err = %v, want ErrMalformedChunk", err)
	}
}

func TestReaderCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got Buffer
	if c, err := r.Replay(&got); err != nil || c != (Counts{}) || len(got.Events) != 0 {
		t.Fatalf("empty trace Replay = %+v, %v; want zero counts and no error", c, err)
	}
}

func TestWriterSkipsZeroOps(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Ops(0)
	w.Flush()
	if buf.String() != "BTRC3\n" {
		t.Fatalf("zero-ops stream wrote %q, want the bare header", buf.Bytes())
	}
}

// Delta encoding should keep clustered streams compact: consecutive nearby
// PCs must average only a couple of bytes per branch.
func TestFileCompactness(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Branch(0x1200_0000+uint64(i%32)*4, i%3 == 0)
	}
	w.Flush()
	if perBranch := float64(buf.Len()) / 10000; perBranch > 2.0 {
		t.Fatalf("%.2f bytes/branch for a clustered stream", perBranch)
	}
}
