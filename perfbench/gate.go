package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"branchsim/internal/predictor"
	"branchsim/internal/sim"
	"branchsim/serveapi"
)

// result is the checked projection of one arm's simulation: instructions,
// branches, taken, mispredicts, collisions total / constructive /
// destructive, and whether collisions were tracked (0 or 1).
type result [8]uint64

func resultOf(m sim.Metrics) result {
	return result{m.Instructions, m.Branches, m.TakenCount, m.Mispredicts,
		m.Collisions.Total, m.Collisions.Constructive, m.Collisions.Destructive, b2u(m.CollisionsTracked)}
}

func resultOfWire(m *serveapi.Metrics) result {
	if m == nil {
		return result{}
	}
	return result{m.Instructions, m.Branches, m.Taken, m.Mispredicts,
		m.Collisions, m.Constructive, m.Destructive, b2u(m.CollisionsTracked)}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// armKey names an arm in expected.json: workload|input|canonical spec|scheme.
func armKey(wl, input, spec, scheme string) string {
	if scheme == "" {
		scheme = "none"
	}
	return wl + "|" + input + "|" + predictor.Canonical(spec) + "|" + scheme
}

// expectedFile is the oracle: every arm any seed can generate, simulated
// once on the scalar path (WithBatch(false)) by `perfbench -gen-expected`.
// Journals maps each modern-observed arm to the digest of its telemetry
// records.
type expectedFile struct {
	Source   string            `json:"source"`
	Results  map[string]result `json:"results"`
	Journals map[string]string `json:"journals"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// gate counts attempted and failed operations. An operation fails when it
// returns an error, is refused, or produces a result that differs from the
// oracle. Safe for concurrent use.
type gate struct {
	want *expectedFile

	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

func newGate(want *expectedFile) *gate { return &gate{want: want} }

// op records one attempted operation; a non-empty problem marks it failed.
func (g *gate) op(problem string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if problem == "" {
		return true
	}
	g.failed++
	if len(g.notes) < 8 {
		g.notes = append(g.notes, problem)
	}
	return false
}

// arm checks one arm's result against the oracle and records it as an op.
func (g *gate) arm(key string, got result, err error) bool {
	return g.op(g.armProblem(key, got, err))
}

func (g *gate) armProblem(key string, got result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", key, err)
	}
	want, ok := g.want.Results[key]
	if !ok {
		return key + ": no expected result"
	}
	if got != want {
		return fmt.Sprintf("%s: got %v, want %v", key, got, want)
	}
	return ""
}

// journal checks one arm's telemetry digest against the oracle's.
func (g *gate) journalProblem(key, digest string) string {
	want, ok := g.want.Journals[key]
	switch {
	case !ok:
		return key + ": no expected journal digest"
	case want != digest:
		return fmt.Sprintf("%s: journal digest %s, want %s", key, digest, want)
	}
	return ""
}

func (g *gate) counts() (attempted, failed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

func (g *gate) failedRatio() float64 {
	a, f := g.counts()
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}
