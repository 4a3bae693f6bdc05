package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"branchsim/internal/fsx"
)

// Journal writes the run journal: one ArmRecord per line, JSON-encoded
// (JSONL). It serializes concurrent writers, so every line is one complete
// record even when arms finish simultaneously. A nil *Journal is a no-op.
type Journal struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  io.Closer
}

// NewJournal wraps w. The caller keeps ownership of w; Close flushes but
// does not close it.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: bufio.NewWriter(w)}
}

// OpenJournal creates (or truncates) a journal file at path.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(fsx.OS, path)
}

// OpenJournalFS is OpenJournal over an explicit filesystem — the seam the
// disk-fault tests inject through. Production code uses OpenJournal.
func OpenJournalFS(fs fsx.FS, path string) (*Journal, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	return &Journal{w: bufio.NewWriter(f), c: f}, nil
}

// Write appends one journal record of any registered type as a single JSONL
// line and flushes, so a killed run keeps every completed arm. The record's type and schema-version envelope fields are
// stamped before encoding.
func (j *Journal) Write(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	rec.stamp()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return err
	}
	return j.w.Flush()
}

// Sync flushes buffered records and, when the journal owns a file, fsyncs it
// to stable storage. Unlike Close, the journal stays usable. Safe on nil.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		return err
	}
	if s, ok := j.c.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close flushes buffered records and closes the underlying file, when the
// journal owns one. Safe on nil.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.w.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
		j.c = nil
	}
	return err
}

// ReadJournal parses a JSONL run journal and returns its arm records,
// skipping telemetry record types. Blank lines are skipped; a malformed line
// or an unsupported schema fails the whole read with its line number, since
// a journal that doesn't parse is a bug, not a degradation. Callers that
// want the telemetry records too should use ReadRecords.
func ReadJournal(r io.Reader) ([]ArmRecord, error) {
	recs, err := ReadRecords(r)
	if err != nil {
		return nil, err
	}
	return recs.Arms, nil
}

// ReadJournalFile is ReadJournal over a file.
func ReadJournalFile(path string) ([]ArmRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}
