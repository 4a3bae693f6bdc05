package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Trace file format.
//
// A trace file is the 6-byte header "BTRC3\n" followed by zero or more
// frames, one per chunk (chunk.go):
//
//	uvarint len | crc32c (4 bytes, little-endian) | len payload bytes
//
// The payload is an unmodified chunk; the checksum is CRC32C (Castagnoli),
// hardware-accelerated on amd64/arm64 by hash/crc32, computed over the
// payload alone. The length prefix makes a frame skippable without decoding
// and turns a torn tail (a crash mid-append) into a detectable short frame
// instead of a misparse. A frame's records are surfaced only after its
// checksum passes, so a flipped bit in a stored chunk is reported as
// corruption instead of silently replaying a different branch stream.
//
// CRC32C detects all single-bit and all burst errors up to 32 bits, which
// covers the realistic disk-corruption model (a flipped bit or a torn
// sector) rather than an adversarial one; untrusted trace ingestion should
// still sandbox what it decodes.
//
// This file is the only place that knows the layout: FileWriter writes it
// (for Writer and for the replay engine's spill, export and quarantine
// files) and Reader reads it. The framing costs little: measured across
// all 18 workload×input pairs, a file of framed chunks was never more than
// 0.02% larger than a single stream of one-varint delta records and was
// smaller on 12 of the 18 (compress/ref: 3.32 vs 3.56 bytes/branch), while
// also keeping full 64-bit PCs and a checksum per chunk.

const fileMagic = "BTRC3\n"

// ChunkTarget is the seal threshold for one encoded chunk, shared by Writer
// and the replay engine's capture so both cut a stream at the same events.
// At roughly two to three bytes per event this is ~16k–32k branches — the
// same order as the simulator's cancellation cadence, so a cancelled replay
// stops fast, while the per-chunk synchronization stays invisible in the
// event loop.
const ChunkTarget = 64 << 10

// frameCRCLen is the size of the encoded checksum field.
const frameCRCLen = 4

// maxFramePayload bounds a frame's declared payload length. Real chunks are
// ~64 KiB (ChunkTarget); the bound keeps a corrupt length prefix from
// turning into a multi-gigabyte allocation.
const maxFramePayload = 1 << 30

// castagnoli is the CRC32C table, built once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) checksum of data, the per-chunk
// integrity check of the file format.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Verify checks payload against its stored CRC32C, returning an error
// wrapping ErrCorrupt on mismatch.
func Verify(payload []byte, crc uint32) error {
	if got := Checksum(payload); got != crc {
		return fmt.Errorf("%w: chunk checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, crc, got)
	}
	return nil
}

// ErrCorrupt is returned when stored trace data fails its integrity check:
// a frame checksum mismatch, a torn (short) frame, or structurally invalid
// records. ErrMalformedChunk wraps it, so errors.Is(err, ErrCorrupt)
// matches every way a chunk can be bad.
var ErrCorrupt = errors.New("trace: corrupt data")

// ErrBadMagic is returned by NewReader when the input is not a trace file.
var ErrBadMagic = errors.New("trace: bad magic, not a branch trace file")

// FileWriter writes the trace file layout to an io.Writer: the header on
// creation, then one frame per WriteChunk.
type FileWriter struct {
	w   io.Writer
	n   int64
	hdr []byte
}

// NewFileWriter writes the file header to w and returns a FileWriter
// appending frames after it.
func NewFileWriter(w io.Writer) (*FileWriter, error) {
	fw := &FileWriter{w: w}
	if err := fw.write([]byte(fileMagic)); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return fw, nil
}

func (fw *FileWriter) write(p []byte) error {
	k, err := fw.w.Write(p)
	fw.n += int64(k)
	return err
}

// WriteChunk appends one frame holding payload, a non-empty chunk whose
// CRC32C the caller passes as crc, and returns the payload's offset in the
// file. Taking the checksum from the caller spares a second pass over a
// chunk checksummed at capture, and lets quarantine evidence carry the
// capture-time checksum of bytes that no longer match it.
func (fw *FileWriter) WriteChunk(payload []byte, crc uint32) (int64, error) {
	if len(payload) == 0 {
		return 0, errors.New("trace: empty chunk")
	}
	fw.hdr = binary.AppendUvarint(fw.hdr[:0], uint64(len(payload)))
	fw.hdr = binary.LittleEndian.AppendUint32(fw.hdr, crc)
	if err := fw.write(fw.hdr); err != nil {
		return 0, err
	}
	off := fw.n
	return off, fw.write(payload)
}

// Size returns the bytes written so far, the header included.
func (fw *FileWriter) Size() int64 { return fw.n }

// Writer records a branch stream to a trace file. It implements Recorder:
// events are encoded into chunks, each sealed and framed once it reaches
// ChunkTarget bytes, so a Writer and a replay capture of the same stream
// produce the same file. Flush must be called at the end of the stream.
type Writer struct {
	cw  ChunkWriter
	fw  *FileWriter
	err error
}

// NewWriter creates a trace Writer and emits the file header.
func NewWriter(w io.Writer) (*Writer, error) {
	fw, err := NewFileWriter(w)
	if err != nil {
		return nil, err
	}
	return &Writer{fw: fw}, nil
}

// Branch implements Recorder.
func (w *Writer) Branch(pc uint64, taken bool) {
	w.cw.Branch(pc, taken)
	if w.cw.Len() >= ChunkTarget {
		w.seal()
	}
}

// Ops implements Recorder.
func (w *Writer) Ops(n uint64) { w.cw.Ops(n) }

func (w *Writer) seal() {
	data := w.cw.Cut()
	if data == nil || w.err != nil {
		return
	}
	_, w.err = w.fw.WriteChunk(data, Checksum(data))
}

// Flush writes the chunk encoded so far and reports the first write error.
// Recording may continue afterwards; the next chunk starts a new frame.
func (w *Writer) Flush() error {
	w.seal()
	return w.err
}

// Reader reads a trace file and replays it into a Recorder, verifying each
// frame's checksum before any of its records are surfaced.
type Reader struct {
	r     *bufio.Reader
	frame []byte // the current verified payload, reused across frames
	bbuf  BlockBuf
}

// NewReader validates the header and returns a Reader. Files of the
// retired earlier versions are rejected with an error wrapping ErrBadMagic.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch string(head) {
	case fileMagic:
		return &Reader{r: br}, nil
	case "BTRC1\n", "BTRC2\n":
		return nil, fmt.Errorf("%w: %s files are no longer read; re-record the trace with bptrace record", ErrBadMagic, head[:5])
	}
	return nil, ErrBadMagic
}

// loadFrame reads and verifies the next frame into r.frame. A clean end of
// stream returns io.EOF; a torn frame, an empty one (writers never emit
// them) or a checksum mismatch returns an error wrapping ErrCorrupt.
func (r *Reader) loadFrame() error {
	n, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return io.EOF // clean end between frames
	}
	if err != nil {
		return fmt.Errorf("%w: frame length: %v", ErrCorrupt, err)
	}
	if n == 0 || n > maxFramePayload {
		return fmt.Errorf("%w: frame length %d out of range", ErrCorrupt, n)
	}
	var crcBuf [frameCRCLen]byte
	if _, err := io.ReadFull(r.r, crcBuf[:]); err != nil {
		return fmt.Errorf("%w: truncated frame checksum: %v", ErrCorrupt, err)
	}
	if cap(r.frame) < int(n) {
		r.frame = make([]byte, n)
	}
	r.frame = r.frame[:n]
	if _, err := io.ReadFull(r.r, r.frame); err != nil {
		return fmt.Errorf("%w: truncated frame payload: %v", ErrCorrupt, err)
	}
	return Verify(r.frame, binary.LittleEndian.Uint32(crcBuf[:]))
}

// Replay streams the whole remaining trace into rec and returns the totals
// observed. A rec that is a BlockSink is fed whole blocks (DecodeChunkBlocks),
// any other through the per-event DecodeChunk. A frame that is torn or
// fails its checksum ends the replay with an error wrapping ErrCorrupt
// before rec sees any of its events. A Stop panic raised by rec (cooperative cancellation, e.g. a
// sim.Runner built WithContext) is recovered and returned as its error.
func (r *Reader) Replay(rec Recorder) (c Counts, err error) {
	defer func() {
		if rv := recover(); rv != nil {
			if stopErr, ok := AsStop(rv); ok {
				err = stopErr
				return
			}
			panic(rv)
		}
	}()
	var decode func(data []byte) error
	if sink, ok := rec.(BlockSink); ok {
		cs := &countedSink{c: &c, sink: sink}
		decode = func(data []byte) error { return DecodeChunkBlocks(data, cs, &r.bbuf) }
	} else {
		tee := Tee(&c, rec)
		decode = func(data []byte) error { return DecodeChunk(data, tee) }
	}
	for {
		if err := r.loadFrame(); err != nil {
			if err == io.EOF {
				return c, nil
			}
			return c, err
		}
		if err := decode(r.frame); err != nil {
			return c, err
		}
	}
}

// countedSink forwards decoded blocks to sink, adding them to c on the way.
type countedSink struct {
	c    *Counts
	sink BlockSink
}

func (s *countedSink) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	for i, o := range ops[:len(pcs)] {
		s.c.Instructions += o
		if taken[i] {
			s.c.TakenCount++
		}
	}
	s.c.Instructions += uint64(len(pcs))
	s.c.Branches += uint64(len(pcs))
	s.sink.RunBlock(pcs, taken, ops)
}

func (s *countedSink) Ops(n uint64) {
	s.c.Ops(n)
	s.sink.Ops(n)
}
