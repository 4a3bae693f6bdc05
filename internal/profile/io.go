package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"branchsim/internal/fsx"
)

// fileFormat is the on-disk JSON shape. Branches are stored as a PC-sorted
// slice (JSON objects cannot key on uint64, and sorted output diffs well).
type fileFormat struct {
	Version      int            `json:"version"`
	Workload     string         `json:"workload"`
	Input        string         `json:"input"`
	Predictor    string         `json:"predictor,omitempty"`
	Instructions uint64         `json:"instructions"`
	Branches     []*BranchStats `json:"branches"`
}

const fileVersion = 1

// Save writes the database as JSON.
func (d *DB) Save(w io.Writer) error {
	ff := fileFormat{
		Version:      fileVersion,
		Workload:     d.Workload,
		Input:        d.Input,
		Predictor:    d.Predictor,
		Instructions: d.Instructions,
		Branches:     d.Branches(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if err := enc.Encode(&ff); err != nil {
		return fmt.Errorf("profile: encoding database: %w", err)
	}
	return nil
}

// Load reads a database written by Save.
func Load(r io.Reader) (*DB, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("profile: decoding database: %w", err)
	}
	if ff.Version != fileVersion {
		return nil, fmt.Errorf("profile: unsupported database version %d", ff.Version)
	}
	d := NewDB(ff.Workload, ff.Input)
	d.Predictor = ff.Predictor
	d.Instructions = ff.Instructions
	for i, b := range ff.Branches {
		if b == nil {
			return nil, fmt.Errorf("profile: null branch record at index %d", i)
		}
		slot, added := d.byPC.Put(b.PC)
		if !added {
			return nil, fmt.Errorf("profile: duplicate record for pc %#x (%v, %v)", b.PC, *slot, b)
		}
		*slot = b
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveFile writes the database to path atomically and durably: the JSON is
// written to a temporary file in the same directory, fsynced, renamed into
// place, and the directory entry fsynced — so neither a crash mid-write nor
// power loss right after the rename loses or truncates the database.
func (d *DB) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op once the rename lands
	f.Chmod(0o644)       // CreateTemp defaults to 0600; match os.Create
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := fsx.SyncDir(dir); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}

// LoadFile reads a database from path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	defer f.Close()
	return Load(f)
}
