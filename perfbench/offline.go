package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
)

// drivers is the number of closed-loop clients of every workload: the
// benchmark targets a 2-CPU machine.
const drivers = 2

// modernTelemetry is modern-observed's telemetry: intervals at the default
// length, table and tagged-bank stats, confidence, and top-K.
var modernTelemetry = telemetry.Config{TableStats: true, Confidence: true, TopK: -1}

// runFunc runs one arm on a harness. The benchmark uses Harness.Run; tests
// substitute a wrapper that corrupts results to prove the gate catches it.
type runFunc func(ctx context.Context, h *experiment.Harness, a experiment.Arm) (sim.Metrics, error)

func harnessRun(ctx context.Context, h *experiment.Harness, a experiment.Arm) (sim.Metrics, error) {
	return h.Run(ctx, a)
}

// offline describes one offline workload: how its grids are generated and
// whether arms run observed (observer, JSONL journal, telemetry).
type offline struct {
	seed int64
	grid func(seed int64, pass int) []offlineJob
	// jobs is the grid of the pass being run.
	jobs     []offlineJob
	observed bool
	// dir holds modern-observed's journal files.
	dir string
	run runFunc
	// noBatch selects the scalar simulation path (the oracle).
	noBatch bool
}

// stack is one set-up harness, ready to take arms.
type stack struct {
	h       *experiment.Harness
	o       *obs.Observer
	journal string
}

// setup builds a fresh harness (and, for observed workloads, its observer
// and journal file). Set-up time is what this function takes. With traced
// set, an unobserved workload's harness gets a bare observer too, so the
// traced run can read the program's counters.
func (w *offline) setup(n int, traced bool) (*stack, error) {
	var opts []experiment.HarnessOption
	opts = append(opts, experiment.WithWorkers(drivers), experiment.WithBatch(!w.noBatch))
	st := &stack{}
	switch {
	case w.observed:
		st.journal = filepath.Join(w.dir, fmt.Sprintf("journal-%d.jsonl", n))
		j, err := obs.OpenJournal(st.journal)
		if err != nil {
			return nil, err
		}
		st.o = obs.New(obs.WithJournal(j))
		opts = append(opts, experiment.WithObserver(st.o), experiment.WithTelemetry(modernTelemetry))
	case traced:
		st.o = obs.New()
		opts = append(opts, experiment.WithObserver(st.o))
	}
	st.h = experiment.NewQuickHarness(opts...)
	return st, nil
}

// close releases the stack and returns its journal bytes (observed only).
func (st *stack) close() ([]byte, error) {
	st.h.Close()
	if st.o == nil {
		return nil, nil
	}
	if err := st.o.Close(); err != nil {
		return nil, err
	}
	if st.journal == "" {
		return nil, nil
	}
	data, err := os.ReadFile(st.journal)
	if err != nil {
		return nil, err
	}
	return data, os.Remove(st.journal)
}

// passSamples is what one full grid pass measured.
type passSamples struct {
	wall     time.Duration
	armMS    []float64
	jobMS    []float64
	branches uint64
	// armWall is each arm's Harness.Run time, by arm key (traced runs).
	armWall map[string]time.Duration
	metrics map[string]sim.Metrics
}

// pass runs every job of the grid once over st with the closed-loop
// drivers, checking each arm against the oracle.
func (w *offline) pass(ctx context.Context, st *stack, g *gate) *passSamples {
	ps := &passSamples{armWall: map[string]time.Duration{}, metrics: map[string]sim.Metrics{}}
	run := w.run
	if run == nil {
		run = harnessRun
	}
	queue := make(chan offlineJob)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				j0 := time.Now()
				for _, a := range j.Arms {
					a0 := time.Now()
					m, err := run(ctx, st.h, a)
					el := time.Since(a0)
					key := armKey(a.Workload, a.Input, a.Pred, a.Scheme)
					ok := g.arm(key, resultOf(m), err)
					mu.Lock()
					ps.armMS = append(ps.armMS, ms(el))
					ps.armWall[key] = el
					if ok {
						ps.branches += m.Branches
						ps.metrics[key] = m
					}
					mu.Unlock()
				}
				jel := time.Since(j0)
				mu.Lock()
				ps.jobMS = append(ps.jobMS, ms(jel))
				mu.Unlock()
			}
		}()
	}
	for _, j := range w.jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()
	ps.wall = time.Since(start)
	return ps
}

// checkJournal compares each arm's telemetry records in the journal with
// the oracle's digest: the journal of a seed must be byte-identical from
// run to run.
func (w *offline) checkJournal(data []byte, g *gate) {
	digests := journalDigests(data)
	for _, j := range w.jobs {
		for _, a := range j.Arms {
			key := armKey(a.Workload, a.Input, a.Pred, a.Scheme)
			label := a.Workload + "|" + a.Input + "|" + telemetryLabel(a)
			g.op(g.journalProblem(key, digests[label]))
		}
	}
}

// telemetryLabel is the predictor label telemetry records carry for an arm:
// the combined predictor's name, e.g. "tage+none".
func telemetryLabel(a experiment.Arm) string {
	family, _, _ := strings.Cut(a.Pred, ":")
	return family + "+" + a.Scheme
}

// journalDigests hashes, per (workload, input, predictor) label, the
// telemetry lines of a journal in the order they were written. Arm records
// carry wall-clock timings and are skipped; everything else is simulation
// output and must be reproducible byte for byte.
func journalDigests(data []byte) map[string]string {
	hashes := map[string][]byte{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		var head struct {
			Type      string `json:"type"`
			Workload  string `json:"workload"`
			Input     string `json:"input"`
			Predictor string `json:"predictor"`
		}
		if json.Unmarshal(line, &head) != nil || head.Type == "arm" {
			continue
		}
		label := head.Workload + "|" + head.Input + "|" + head.Predictor
		h := sha256.New()
		h.Write(hashes[label])
		h.Write(line)
		hashes[label] = h.Sum(nil)
	}
	out := make(map[string]string, len(hashes))
	for k, v := range hashes {
		out[k] = hex.EncodeToString(v[:12])
	}
	return out
}

func newOffline(opt options, run runFunc) *offline {
	w := &offline{seed: opt.seed, dir: opt.scratch, run: run, grid: paperGrid}
	if opt.workload == "modern-observed" {
		w.grid = modernGrid
		w.observed = true
	}
	return w
}

// runOffline runs paper-grid or modern-observed: fresh-harness grid passes
// back to back until opt.seconds have been measured.
func runOffline(ctx context.Context, opt options, g *gate, run runFunc) (map[string]metric, error) {
	w := newOffline(opt, run)
	if opt.trace {
		return traceOffline(ctx, opt, w, g)
	}
	t := &timing{}
	if err := timeSetups(opt, t); err != nil {
		return nil, err
	}
	for n := 0; n == 0 || t.elapsed < opt.seconds; n++ {
		resetPeakRSS()
		sp := speed()
		before, cpu0 := readTicks(), cpuSeconds()
		ps, err := w.timedPass(ctx, n, g)
		if err != nil {
			return nil, err
		}
		t.addPass(ps.wall, runShare(before, readTicks()), sp, cpuSeconds()-cpu0, ps.armMS, ps.jobMS, ps.branches)
	}
	return t.endToEnd(), nil
}

// timedPass sets up a fresh stack, runs grid pass n over it and checks
// the journal.
func (w *offline) timedPass(ctx context.Context, n int, g *gate) (*passSamples, error) {
	w.jobs = w.grid(w.seed, n)
	st, err := w.setup(n, false)
	if err != nil {
		return nil, err
	}
	ps := w.pass(ctx, st, g)
	data, err := st.close()
	if err != nil {
		return nil, err
	}
	if w.observed {
		w.checkJournal(data, g)
	}
	return ps, nil
}
