// Package core implements the paper's contribution: combining static and
// dynamic branch prediction to reduce destructive aliasing.
//
// A profile-driven *selection scheme* (Static_95, Static_Acc, Static_Fac,
// Static_Col) chooses a set of branches to predict statically and a fixed
// direction for each — the paper's two hint bits per conditional branch, as
// in IA-64: one bit carrying the static prediction, one bit telling the
// hardware to use it. The Combined predictor then wraps any dynamic
// predictor: hinted branches take their static prediction and neither index
// nor train the dynamic tables, relieving aliasing for the branches that
// remain dynamic. Optionally the *outcomes* of hinted branches are still
// shifted into the dynamic predictor's global history register, preserving
// correlation context (the paper's Table 4 experiment).
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"branchsim/internal/pctab"
)

// Hint is the static prediction for one branch: the branch is predicted
// Taken (or not) on every execution. Presence of a Hint is the "use static
// prediction" bit; Taken is the direction bit.
type Hint struct {
	PC    uint64 `json:"pc"`
	Taken bool   `json:"taken"`
}

// HintDB is the output of the selection phase: the set of statically
// predicted branches for one workload, recorded — as the paper does with its
// selection database — between the selection run and the measurement run.
type HintDB struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`  // selection scheme that produced it
	Profile  string `json:"profile"` // input(s) the profile came from

	hints pctab.Table[bool] // static direction by PC
}

// NewHintDB returns an empty hint database.
func NewHintDB(workload, scheme, profileInput string) *HintDB {
	return &HintDB{Workload: workload, Scheme: scheme, Profile: profileInput}
}

// Set installs a static prediction for the branch at pc.
func (h *HintDB) Set(pc uint64, taken bool) {
	t, _ := h.hints.Put(pc)
	*t = taken
}

// Lookup returns the static direction for pc and whether a hint exists.
func (h *HintDB) Lookup(pc uint64) (taken, ok bool) {
	if t := h.hints.Get(pc); t != nil {
		return *t, true
	}
	return false, false
}

// Len returns the number of hinted branches.
func (h *HintDB) Len() int {
	if h == nil {
		return 0
	}
	return h.hints.Len()
}

// Hints returns all hints sorted by PC.
func (h *HintDB) Hints() []Hint {
	out := make([]Hint, 0, h.hints.Len())
	h.hints.Range(func(pc uint64, t *bool) { out = append(out, Hint{PC: pc, Taken: *t}) })
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

type hintFile struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Profile  string `json:"profile"`
	Hints    []Hint `json:"hints"`
}

const hintFileVersion = 1

// Save writes the hint database as JSON.
func (h *HintDB) Save(w io.Writer) error {
	ff := hintFile{
		Version:  hintFileVersion,
		Workload: h.Workload,
		Scheme:   h.Scheme,
		Profile:  h.Profile,
		Hints:    h.Hints(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if err := enc.Encode(&ff); err != nil {
		return fmt.Errorf("core: encoding hints: %w", err)
	}
	return nil
}

// LoadHints reads a hint database written by Save.
func LoadHints(r io.Reader) (*HintDB, error) {
	var ff hintFile
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("core: decoding hints: %w", err)
	}
	if ff.Version != hintFileVersion {
		return nil, fmt.Errorf("core: unsupported hint file version %d", ff.Version)
	}
	h := NewHintDB(ff.Workload, ff.Scheme, ff.Profile)
	for _, hint := range ff.Hints {
		t, added := h.hints.Put(hint.PC)
		if !added {
			return nil, fmt.Errorf("core: duplicate hint for pc %#x", hint.PC)
		}
		*t = hint.Taken
	}
	return h, nil
}

// SaveFile writes the hint database to path.
func (h *HintDB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if err := h.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadHintsFile reads a hint database from path.
func LoadHintsFile(path string) (*HintDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadHints(f)
}
