package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"branchsim/internal/core"
	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// The layer probes call each module's public functions directly on the
// streams of the workload's own inputs, with a span around every call, so
// each layer is timed from outside the program.

// spans collects span durations by name. Safe for concurrent use.
type spans struct {
	mu sync.Mutex
	d  map[string][]time.Duration
}

func newSpans() *spans { return &spans{d: map[string][]time.Duration{}} }

func (s *spans) add(name string, d time.Duration) {
	s.mu.Lock()
	s.d[name] = append(s.d[name], d)
	s.mu.Unlock()
}

// time runs fn inside a span named name.
func (s *spans) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.add(name, time.Since(t0))
	return err
}

func (s *spans) total(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, d := range s.d[name] {
		t += d
	}
	return t
}

func (s *spans) meanMS(name string) float64 {
	s.mu.Lock()
	n := len(s.d[name])
	s.mu.Unlock()
	if n == 0 {
		return 0
	}
	return ms(s.total(name)) / float64(n)
}

// stream is one workload input's branch stream, held flat for the probes:
// ops[i] straight-line instructions precede branch i, tailOps follow the
// last one.
type stream struct {
	wl      string
	pcs     []uint64
	taken   []bool
	ops     []uint64
	tailOps uint64
	chunks  [][]byte
}

func (s *stream) branches() uint64 { return uint64(len(s.pcs)) }

func (s *stream) Branch(pc uint64, taken bool) {
	s.pcs = append(s.pcs, pc)
	s.taken = append(s.taken, taken)
	s.ops = append(s.ops, s.tailOps)
	s.tailOps = 0
}

func (s *stream) Ops(n uint64) { s.tailOps += n }

// blocks calls fn on consecutive blocks of the stream, DefaultBlockEvents
// long, the granularity the replay engine feeds runners at.
func (s *stream) blocks(fn func(pcs []uint64, taken []bool, ops []uint64)) {
	for i := 0; i < len(s.pcs); i += trace.DefaultBlockEvents {
		j := min(i+trace.DefaultBlockEvents, len(s.pcs))
		fn(s.pcs[i:j], s.taken[i:j], s.ops[i:j])
	}
}

// feed drives rec with the stream event by event.
func (s *stream) feed(rec trace.Recorder) {
	for i, pc := range s.pcs {
		if s.ops[i] != 0 {
			rec.Ops(s.ops[i])
		}
		rec.Branch(pc, s.taken[i])
	}
	if s.tailOps != 0 {
		rec.Ops(s.tailOps)
	}
}

// feedBlocks drives sink with the stream block by block.
func (s *stream) feedBlocks(sink trace.BlockSink) {
	s.blocks(sink.RunBlock)
	if s.tailOps != 0 {
		sink.Ops(s.tailOps)
	}
}

// nopSink discards decoded blocks.
type nopSink struct{}

func (nopSink) RunBlock([]uint64, []bool, []uint64) {}
func (nopSink) Ops(uint64)                          {}

// probeSpec is the predictor the single-predictor probes use.
const probeSpec = "gshare:8KB"

// kernelSchemes are the predictors timed by the kernel probe; the first
// five have native batch kernels.
var kernelSchemes = []string{"bimodal", "ghist", "gshare", "bimode", "2bcgskew", "tage", "perceptron"}

// layers runs the probes and holds what they measured.
type layers struct {
	opt     options
	g       *gate
	sp      *spans
	streams []*stream
	// n counts the branches each probe span covered, by span name.
	n map[string]uint64
	// values holds probe results that are not span sums.
	values map[string]float64
}

func newLayers(opt options, g *gate) *layers {
	return &layers{opt: opt, g: g, sp: newSpans(), n: map[string]uint64{}, values: map[string]float64{}}
}

// nsPerBranch is a span's total time over the branches it covered.
func (l *layers) nsPerBranch(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return float64(l.sp.total(name)) / float64(l.n[name])
}

// timeBranches runs fn in span name and credits it with n branches.
func (l *layers) timeBranches(name string, n uint64, fn func() error) error {
	l.n[name] += n
	return l.sp.time(name, fn)
}

// probe runs every layer probe over the test-input streams of the suite.
func (l *layers) probe(ctx context.Context) error {
	for _, wl := range experiment.Suite {
		if err := l.captureProbe(ctx, wl); err != nil {
			return err
		}
	}
	steps := []func(context.Context) error{
		l.codecProbe, l.kernelProbe, l.runnerProbe, l.telemetryProbe, l.coreProbe,
		l.captureWaitProbe, l.singleflightProbe, l.checkpointProbe,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// captureProbe times the instrumented workload alone (workload layer),
// then records its stream for the other probes.
func (l *layers) captureProbe(ctx context.Context, wl string) error {
	var c trace.Counts
	err := l.sp.time("workload.exec", func() error { return workload.Run(ctx, wl, offlineInput, &c) })
	if err != nil {
		return err
	}
	l.n["workload.exec"] += c.Branches
	s := &stream{wl: wl}
	if err := workload.Run(ctx, wl, offlineInput, s); err != nil {
		return err
	}
	if s.branches() != c.Branches {
		return fmt.Errorf("%s: recorded %d branches, executed %d", wl, s.branches(), c.Branches)
	}
	l.streams = append(l.streams, s)
	return nil
}

// chunkTarget matches the replay engine's chunk size.
const chunkTarget = 64 << 10

// codecProbe times the trace layer: encoding each stream into chunks,
// verifying their checksums, and decoding them block-wise.
func (l *layers) codecProbe(context.Context) error {
	var bytes int
	for _, s := range l.streams {
		err := l.timeBranches("trace.encode", s.branches(), func() error {
			var w trace.ChunkWriter
			for i, pc := range s.pcs {
				if s.ops[i] != 0 {
					w.Ops(s.ops[i])
				}
				w.Branch(pc, s.taken[i])
				if w.Len() >= chunkTarget {
					s.chunks = append(s.chunks, w.Cut())
				}
			}
			w.Ops(s.tailOps)
			if c := w.Cut(); c != nil {
				s.chunks = append(s.chunks, c)
			}
			return nil
		})
		if err != nil {
			return err
		}
		crcs := make([]uint32, len(s.chunks))
		for i, c := range s.chunks {
			crcs[i] = trace.Checksum(c)
			bytes += len(c)
		}
		if err := l.sp.time("trace.verify", func() error {
			for i, c := range s.chunks {
				if err := trace.Verify(c, crcs[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := l.timeBranches("trace.decode", s.branches(), func() error {
			var buf trace.BlockBuf
			for _, c := range s.chunks {
				if err := trace.DecodeChunkBlocks(c, nopSink{}, &buf); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	l.values["trace.bytes"] = float64(bytes)
	return nil
}

// kernelProbe times each predictor's block kernel (the generic scalar
// block for tage and perceptron) at 8KB, with and without collision tags.
func (l *layers) kernelProbe(context.Context) error {
	for i, scheme := range kernelSchemes {
		variants := []bool{true}
		if i < 5 {
			variants = append(variants, false)
		}
		for _, tagged := range variants {
			name := "predictor." + scheme + ".tagged"
			if !tagged {
				name = "predictor." + scheme + ".untagged"
			}
			for _, s := range l.streams {
				p, err := predictor.New(scheme + ":8KB")
				if err != nil {
					return err
				}
				if c, ok := p.(predictor.Collider); ok && tagged {
					c.EnableCollisionTracking()
				}
				bs, _ := predictor.Batch(p)
				var bm predictor.BlockMetrics
				_ = l.timeBranches(name, s.branches(), func() error {
					s.blocks(func(pcs []uint64, taken []bool, _ []uint64) { bs.RunBlock(pcs, taken, &bm) })
					return nil
				})
			}
		}
	}
	return nil
}

// runnerProbe times sim.Runner on the block path and on the per-event
// path, and checks both against the oracle.
func (l *layers) runnerProbe(context.Context) error {
	for _, s := range l.streams {
		for _, path := range []string{"sim.runner", "sim.scalar"} {
			p, err := predictor.New(probeSpec)
			if err != nil {
				return err
			}
			r := sim.NewRunner(core.NewCombined(p, nil, core.NoShift), sim.WithCollisions())
			_ = l.timeBranches(path, s.branches(), func() error {
				if path == "sim.runner" {
					s.feedBlocks(r)
				} else {
					s.feed(r)
				}
				return nil
			})
			key := armKey(s.wl, offlineInput, probeSpec, "none")
			l.g.arm(key, resultOf(r.Metrics()), nil)
		}
	}
	return nil
}

// telemetryProbe times the telemetry collector with modern-observed's
// configuration fed from a gshare run, the table introspection behind its
// table-stats samples, and writing its records to a JSONL journal.
func (l *layers) telemetryProbe(context.Context) error {
	dir, err := os.MkdirTemp(l.opt.scratch, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var journalBytes int64
	for i, s := range l.streams {
		p, err := predictor.New(probeSpec)
		if err != nil {
			return err
		}
		p.(predictor.Collider).EnableCollisionTracking()
		n := len(s.pcs)
		bm := predictor.BlockMetrics{Correct: make([]bool, n), Collided: make([]bool, n)}
		bs, _ := predictor.Batch(p)
		bs.RunBlock(s.pcs, s.taken, &bm)
		c := telemetry.New(modernTelemetry, nil)
		c.Bind(p, s.wl, offlineInput, p.Name(), true)
		_ = l.timeBranches("telemetry.collect", s.branches(), func() error {
			for i, pc := range s.pcs {
				if s.ops[i] != 0 {
					c.Ops(s.ops[i])
				}
				c.Branch(pc, s.taken[i], bm.Correct[i], bm.Collided[i])
			}
			c.Ops(s.tailOps)
			return nil
		})
		recs := c.Finish()
		path := filepath.Join(dir, fmt.Sprintf("arm-%d.jsonl", i))
		if err := l.sp.time("obs.journal_write", func() error { return writeJournal(path, recs) }); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		journalBytes += fi.Size()
	}
	l.values["obs.journal_bytes_per_arm"] = float64(journalBytes) / float64(len(l.streams))
	for _, spec := range []string{"gshare:8KB", "2bcgskew:8KB", "tage:8KB", "perceptron:8KB"} {
		p, err := predictor.New(spec)
		if err != nil {
			return err
		}
		in, _ := p.(predictor.Introspector)
		tin, _ := p.(predictor.TaggedIntrospector)
		if in != nil {
			in.EnableTableStats()
		}
		if tin != nil {
			tin.EnableTableStats()
		}
		l.streams[0].feed(sim.NewRunner(p))
		for k := 0; k < 10; k++ {
			_ = l.sp.time("telemetry.table_stats", func() error {
				if in != nil {
					in.Introspect()
				}
				if tin != nil {
					tin.IntrospectTagged()
				}
				return nil
			})
		}
	}
	return nil
}

// writeJournal writes one arm's telemetry records as a JSONL journal.
func writeJournal(path string, r telemetry.Records) error {
	j, err := obs.OpenJournal(path)
	if err != nil {
		return err
	}
	var recs []obs.JournalRecord
	for i := range r.Intervals {
		recs = append(recs, &r.Intervals[i])
	}
	for i := range r.TableStats {
		recs = append(recs, &r.TableStats[i])
	}
	for i := range r.TaggedStats {
		recs = append(recs, &r.TaggedStats[i])
	}
	for i := range r.Confidence {
		recs = append(recs, &r.Confidence[i])
	}
	if r.TopK != nil {
		recs = append(recs, r.TopK)
	}
	for _, rec := range recs {
		if err := j.Write(rec); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Sync(); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

// coreProbe times phase-1 profiling and hint selection through the
// harness, then the combined static+dynamic predictor on the per-event
// path, checking the staticacc result against the oracle.
func (l *layers) coreProbe(ctx context.Context) error {
	var static, total uint64
	for _, s := range l.streams {
		h := experiment.NewQuickHarness(experiment.WithWorkers(drivers))
		arm := experiment.Arm{Workload: s.wl, Input: offlineInput, Pred: probeSpec, Scheme: "staticacc"}
		// Capture first, so phase 1 is timed as the replay a sweep pays.
		if _, err := h.Run(ctx, experiment.Arm{Workload: s.wl, Input: offlineInput, Pred: probeSpec, Scheme: "none"}); err != nil {
			h.Close()
			return err
		}
		err := l.timeBranches("profile.phase1", s.branches(), func() error {
			_, err := h.Profile(ctx, s.wl, offlineInput, probeSpec)
			return err
		})
		var hints *core.HintDB
		if err == nil {
			err = l.sp.time("experiment.hints", func() (err error) {
				hints, err = h.Hints(ctx, arm)
				return err
			})
		}
		h.Close()
		if err != nil {
			return err
		}
		p, err := predictor.New(probeSpec)
		if err != nil {
			return err
		}
		c := core.NewCombined(p, hints, core.NoShift)
		r := sim.NewRunner(c, sim.WithCollisions())
		_ = l.timeBranches("core.combined", s.branches(), func() error {
			s.feedBlocks(r)
			return nil
		})
		l.g.arm(armKey(s.wl, offlineInput, probeSpec, "staticacc"), resultOf(r.Metrics()), nil)
		st := c.Stats()
		static += st.StaticExecs
		total += st.StaticExecs + st.DynamicExecs
	}
	if total > 0 {
		l.values["core.static_share"] = float64(static) / float64(total)
	}
	return nil
}

// captureWaitProbe measures how long a replay waits on a capture still in
// progress: a replay started together with the capture, less the same
// replay once the capture has sealed.
func (l *layers) captureWaitProbe(ctx context.Context) error {
	for _, s := range l.streams {
		prog, err := workload.Get(s.wl)
		if err != nil {
			return err
		}
		e := replay.New(drivers, 0, "")
		key := replay.Key(s.wl, offlineInput)
		produce := func(r trace.Recorder) error { return workload.RunProgram(ctx, prog, offlineInput, r) }
		newRec := func() (trace.Recorder, error) { return &trace.Counts{}, nil }
		var wg sync.WaitGroup
		var mu sync.Mutex
		var waited time.Duration
		var firstErr error
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				_, src, err := e.RunSourced(ctx, key, produce, newRec)
				el := time.Since(t0)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if src != replay.SourceCapture {
					waited = el
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			e.Close()
			return firstErr
		}
		t0 := time.Now()
		_, err = e.Run(ctx, key, produce, newRec)
		sealed := time.Since(t0)
		e.Close()
		if err != nil {
			return err
		}
		l.sp.add("replay.capture_wait", max(0, waited-sealed))
	}
	return nil
}

// singleflightProbe times a caller that asks for an arm another caller is
// already simulating: Harness.RunAttributed from two goroutines at once.
func (l *layers) singleflightProbe(ctx context.Context) error {
	for _, s := range l.streams {
		h := experiment.NewQuickHarness(experiment.WithWorkers(drivers))
		arm := experiment.Arm{Workload: s.wl, Input: offlineInput, Pred: probeSpec, Scheme: "none"}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				m, src, err := h.RunAttributed(ctx, arm)
				el := time.Since(t0)
				l.g.arm(armKey(arm.Workload, arm.Input, arm.Pred, arm.Scheme), resultOf(m), err)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if src == obs.SourceSingleflight {
					l.sp.add("experiment.singleflight_wait", el)
				}
			}()
		}
		wg.Wait()
		h.Close()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// checkpointProbe times durable checkpoint writes (temp file, fsync,
// rename, directory fsync).
func (l *layers) checkpointProbe(context.Context) error {
	dir, err := os.MkdirTemp(l.opt.scratch, "checkpoint-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cp, err := experiment.OpenCheckpoint(dir)
	if err != nil {
		return err
	}
	m := sim.Metrics{Predictor: "gshare", Workload: "probe", Input: offlineInput}
	for i := 0; i < 10; i++ {
		m.Branches = uint64(i)
		if err := l.sp.time("experiment.checkpoint_write", func() error {
			return cp.SaveRun(fmt.Sprintf("r|probe|%d", i), m)
		}); err != nil {
			return err
		}
	}
	return nil
}
