package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"branchsim/internal/core"
	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
)

// A traced run measures the layers: the probes in layers.go, then
// alternating untraced and traced passes (or rounds) of the workload
// itself. Traced passes attach an observer to read the program's own
// counters and time every call the benchmark makes into the program; the
// ratio of their wall time to the untraced passes' is the tracing overhead.
// Every result of a traced run goes through the same correctness gate.

// minTracedPairs is the least number of untraced/traced pass pairs a traced
// run makes, however short --seconds is.
const minTracedPairs = 2

// offBound is the "off is free" bound the off ratios are printed beside.
const offBound = 1.05

// armInfo is what the layer model needs to know about one simulated arm.
type armInfo struct {
	wl, spec, scheme string
	branches         uint64
	wall             time.Duration
}

// passCounters accumulates the program's own counters over traced passes.
type passCounters struct {
	passes         int
	captures       uint64
	replays        uint64
	chunksCaptured uint64
	chunksReplayed uint64
	chunksDecoded  uint64
	sfHits         uint64
	armsStarted    uint64
	memPeak        int64
	modeled        time.Duration
	measured       time.Duration
	blockBranches  uint64
	branches       uint64
}

// add folds one traced pass's observer registry into pc.
func (pc *passCounters) add(o *obs.Observer) {
	pc.passes++
	pc.captures += o.Counter(obs.MReplayCaptures).Value()
	pc.replays += o.Counter(obs.MReplayReplays).Value()
	pc.chunksCaptured += o.Counter(obs.MReplayChunksCaptured).Value()
	pc.chunksReplayed += o.Counter(obs.MReplayChunksReplayed).Value()
	pc.chunksDecoded += o.Histogram(obs.MReplayChunkDecode).Count()
	pc.sfHits += o.Counter(obs.MSingleflightHits).Value() + o.Counter(obs.MCheckpointHits).Value()
	pc.armsStarted += o.Counter(obs.MArmsStarted).Value()
}

// arms folds a traced pass's arms into the layer model and the block-path
// share.
func (pc *passCounters) arms(l *layers, arms []armInfo, tel telemetry.Config) {
	pc.modeled += l.model(arms, tel)
	for _, a := range arms {
		pc.measured += a.wall
		pc.branches += a.branches
		if blockPath(a, tel) {
			pc.blockBranches += a.branches
		}
	}
}

// memSampler tracks the replay engine's in-memory trace bytes while a pass
// runs.
func memSampler(h *experiment.Harness, pc *passCounters) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if h.Replay != nil {
				pc.memPeak = max(pc.memPeak, h.Replay.MemBytes())
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// blockPath reports whether sim.Runner runs the arm on the batched block
// path: a native kernel, no static hints (they force the per-event loop)
// and no telemetry that samples tables or confidence.
func blockPath(a armInfo, tel telemetry.Config) bool {
	p, err := predictor.New(a.spec)
	if err != nil {
		return false
	}
	var hints *core.HintDB
	if a.scheme != "none" {
		hints = core.NewHintDB(a.wl, a.scheme, "")
		hints.Set(0, true)
	}
	c := telemetry.New(tel, nil)
	r := sim.NewRunner(core.NewCombined(p, hints, core.NoShift), sim.WithCollisions(), sim.WithTelemetry(c))
	return r.BatchKernel() && !c.TableSampling() && !c.ConfidenceSampling()
}

// model is the layer-cost model of a set of arms: each workload captured
// once (execution and encoding), each arm decoded and simulated on its
// path, phase-1 profiles for the static schemes, telemetry where enabled —
// all at the per-branch costs the probes measured.
func (l *layers) model(arms []armInfo, tel telemetry.Config) time.Duration {
	var ns float64
	captured := map[string]bool{}
	profiled := map[string]bool{}
	exec, enc, dec := l.nsPerBranch("workload.exec"), l.nsPerBranch("trace.encode"), l.nsPerBranch("trace.decode")
	runner := l.nsPerBranch("sim.runner") - l.nsPerBranch("predictor.gshare.tagged")
	scalar := l.nsPerBranch("sim.scalar") - l.nsPerBranch("predictor.gshare.tagged")
	combined := l.nsPerBranch("core.combined") - l.nsPerBranch("sim.scalar")
	phase1 := l.nsPerBranch("profile.phase1")
	telNs := 0.0
	if tel.Enabled() {
		telNs = l.nsPerBranch("telemetry.collect")
	}
	for _, a := range arms {
		b := float64(a.branches)
		if !captured[a.wl] {
			captured[a.wl] = true
			ns += b * (exec + enc)
		}
		family := a.spec
		if i := strings.IndexByte(family, ':'); i >= 0 {
			family = family[:i]
		}
		kernel := l.nsPerBranch("predictor." + family + ".tagged")
		switch {
		case blockPath(a, tel):
			ns += b * (dec + kernel + runner)
		case a.scheme == "none":
			ns += b * (dec + kernel + scalar + telNs)
		default:
			ns += b * (dec + kernel + scalar + combined + telNs)
		}
		if a.scheme != "none" {
			pk := a.wl + "|" + a.spec
			if a.scheme == "static95" {
				pk = a.wl
			}
			if !profiled[pk] {
				profiled[pk] = true
				ns += b * phase1
			}
		}
	}
	return time.Duration(ns)
}

// tracedPass is one grid pass with an observer attached, the replay
// engine's memory sampled, and every arm folded into pc.
func (w *offline) tracedPass(ctx context.Context, n int, g *gate, l *layers, pc *passCounters) (*passSamples, error) {
	w.jobs = w.grid(w.seed, n)
	st, err := w.setup(n, true)
	if err != nil {
		return nil, err
	}
	stop := memSampler(st.h, pc)
	ps := w.pass(ctx, st, g)
	stop()
	pc.add(st.o)
	data, err := st.close()
	if err != nil {
		return nil, err
	}
	if w.observed {
		w.checkJournal(data, g)
	}
	var arms []armInfo
	for _, j := range w.jobs {
		for _, a := range j.Arms {
			key := armKey(a.Workload, a.Input, a.Pred, a.Scheme)
			arms = append(arms, armInfo{wl: a.Workload, spec: a.Pred, scheme: a.Scheme,
				branches: ps.metrics[key].Branches, wall: ps.armWall[key]})
		}
	}
	tel := telemetry.Config{}
	if w.observed {
		tel = modernTelemetry
	}
	pc.arms(l, arms, tel)
	return ps, nil
}

// traceOffline is the traced run of paper-grid and modern-observed.
func traceOffline(ctx context.Context, opt options, w *offline, g *gate) (map[string]metric, error) {
	start := time.Now()
	l := newLayers(opt, g)
	if err := l.probe(ctx); err != nil {
		return nil, err
	}
	if err := l.offRatios(ctx, opt.seed); err != nil {
		return nil, err
	}
	sc, err := l.serveProbe(ctx, opt)
	if err != nil {
		return nil, err
	}
	pc := &passCounters{}
	var plain, traced []float64
	for i := 0; i < minTracedPairs || time.Since(start).Seconds() < opt.seconds; i++ {
		before := readTicks()
		ps, err := w.timedPass(ctx, i, g)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ps.wall.Seconds()*runShare(before, readTicks()))
		before = readTicks()
		ps, err = w.tracedPass(ctx, i, g, l, pc)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ps.wall.Seconds()*runShare(before, readTicks()))
	}
	dedupe := 0.0
	if pc.armsStarted+pc.sfHits > 0 {
		dedupe = float64(pc.sfHits) / float64(pc.armsStarted+pc.sfHits)
	}
	return l.metrics(pc, sc, dedupe, median(traced)/median(plain)), nil
}

// serveCounters is what traced serve rounds read from the daemon.
type serveCounters struct {
	queueWait, jobLatency time.Duration
	queued, jobs          uint64
	rejected              uint64
	saved, run            uint64
}

func meanMS(total time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// tracedRound is one serve round with spans around every client call, one
// extra status round trip after each job, and the daemon's counters read
// at the end.
func (l *layers) tracedRound(ctx context.Context, opt options, r int, pc *passCounters, sc *serveCounters) (*roundSamples, error) {
	st, err := setupServe(ctx, opt.scratch)
	if err != nil {
		return nil, err
	}
	defer st.close()
	stop := memSampler(st.h, pc)
	call := func(name string, fn func() error) error { return l.sp.time(name, fn) }
	jobs := serveRound(opt.seed, r)
	rs := st.round(ctx, jobs, l.g, call)
	stop()
	for _, c := range st.clients {
		list, err := c.ListJobs(ctx)
		if err != nil {
			return nil, err
		}
		for _, j := range list.Jobs {
			if err := call("serveapi.roundtrip", func() error {
				_, err := c.JobStatus(ctx, j.ID)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	pc.add(st.o)
	q, jl := st.o.Histogram(obs.MServeQueueWait), st.o.Histogram(obs.MServeJobLatency)
	sc.queueWait += q.Sum()
	sc.queued += q.Count()
	sc.jobLatency += jl.Sum()
	sc.jobs += jl.Count()
	sc.rejected += st.o.Counter(obs.MServeJobsRejected).Value()
	tl, err := st.clients[0].Tenants(ctx)
	if err != nil {
		return nil, err
	}
	for _, t := range tl.Tenants {
		sc.saved += t.ArmsSaved
		sc.run += t.ArmsRun
	}
	var arms []armInfo
	seen := map[string]bool{}
	for _, specs := range jobs {
		for _, spec := range specs {
			s := cloneSpec(spec)
			if err := s.Normalize(); err != nil {
				return nil, err
			}
			for _, a := range s.Arms() {
				key := armKey(a.Workload, a.Input, a.Predictor, a.Scheme)
				if !seen[key] {
					seen[key] = true
					arms = append(arms, armInfo{wl: a.Workload, spec: a.Predictor, scheme: a.Scheme,
						branches: l.g.want.Results[key][1]})
				}
			}
		}
	}
	pc.modeled += l.model(arms, telemetry.Config{})
	for _, a := range arms {
		pc.branches += a.branches
		if blockPath(a, telemetry.Config{}) {
			pc.blockBranches += a.branches
		}
	}
	for _, d := range rs.jobMS {
		pc.measured += time.Duration(d * float64(time.Millisecond))
	}
	return rs, nil
}

// serveProbe runs one traced serve round so that offline traced runs
// report the serve and serveapi layers too.
func (l *layers) serveProbe(ctx context.Context, opt options) (*serveCounters, error) {
	sc := &serveCounters{}
	_, err := l.tracedRound(ctx, opt, 0, &passCounters{}, sc)
	return sc, err
}

// traceServe is the traced run of serve-tenants.
func traceServe(ctx context.Context, opt options, g *gate) (map[string]metric, error) {
	start := time.Now()
	l := newLayers(opt, g)
	if err := l.probe(ctx); err != nil {
		return nil, err
	}
	if err := l.offRatios(ctx, opt.seed); err != nil {
		return nil, err
	}
	pc := &passCounters{}
	sc := &serveCounters{}
	var plain, traced []float64
	for i := 0; i < minTracedPairs || time.Since(start).Seconds() < opt.seconds; i++ {
		st, err := setupServe(ctx, opt.scratch)
		if err != nil {
			return nil, err
		}
		before := readTicks()
		rs := st.round(ctx, serveRound(opt.seed, i), g, untimed)
		plain = append(plain, rs.wall.Seconds()*runShare(before, readTicks()))
		st.close()
		before = readTicks()
		rs, err = l.tracedRound(ctx, opt, i, pc, sc)
		if err != nil {
			return nil, err
		}
		traced = append(traced, rs.wall.Seconds()*runShare(before, readTicks()))
	}
	dedupe := 0.0
	if sc.run > 0 {
		dedupe = float64(sc.saved) / float64(sc.run)
	}
	return l.metrics(pc, sc, dedupe, median(traced)/median(plain)), nil
}

// offRatios measures the "off is free" ratios on paper-grid's baseline
// arms in interleaved rounds: an idle obs.New() observer against none, and
// a zero telemetry.Config against no telemetry option.
func (l *layers) offRatios(ctx context.Context, seed int64) error {
	var arms []experiment.Arm
	for _, j := range paperGrid(seed, 0) {
		for _, a := range j.Arms {
			if a.Scheme == "none" {
				arms = append(arms, a)
			}
		}
	}
	sweep := func(opts ...experiment.HarnessOption) (float64, error) {
		h := experiment.NewQuickHarness(append([]experiment.HarnessOption{experiment.WithWorkers(drivers)}, opts...)...)
		defer h.Close()
		before := readTicks()
		t0 := time.Now()
		var firstErr error
		var mu sync.Mutex
		parallel(len(arms), func(i int) {
			a := arms[i]
			m, err := h.Run(ctx, a)
			l.g.arm(armKey(a.Workload, a.Input, a.Pred, a.Scheme), resultOf(m), err)
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
			}
		})
		return time.Since(t0).Seconds() * runShare(before, readTicks()), firstErr
	}
	pairs := []struct {
		name string
		on   func() experiment.HarnessOption
	}{
		{"obs.off_ratio", func() experiment.HarnessOption { return experiment.WithObserver(obs.New()) }},
		{"telemetry.off_ratio", func() experiment.HarnessOption { return experiment.WithTelemetry(telemetry.Config{}) }},
	}
	const rounds = 5
	for _, p := range pairs {
		var off, on []float64
		for r := 0; r < rounds; r++ {
			// Alternating which side runs first cancels linear drift.
			for _, first := range []bool{r%2 == 0, r%2 != 0} {
				var d float64
				var err error
				if first {
					d, err = sweep()
					off = append(off, d)
				} else {
					d, err = sweep(p.on())
					on = append(on, d)
				}
				if err != nil {
					return err
				}
			}
		}
		// Best of the rounds on each side: contention only ever adds time.
		l.values[p.name] = sortedCopy(on)[0] / sortedCopy(off)[0]
		fmt.Printf("%-34s %14.4f x (bound %.2fx, best of %d interleaved rounds)\n", p.name, l.values[p.name], offBound, rounds)
	}
	return nil
}

// metrics assembles the per-layer metrics of a traced run.
func (l *layers) metrics(pc *passCounters, sc *serveCounters, dedupe, overhead float64) map[string]metric {
	var branches uint64
	for _, s := range l.streams {
		branches += s.branches()
	}
	m := map[string]metric{
		"workload.exec_ns_per_branch":     {l.nsPerBranch("workload.exec"), "ns"},
		"trace.encode_ns_per_branch":      {l.nsPerBranch("trace.encode"), "ns"},
		"trace.bytes_per_branch":          {l.values["trace.bytes"] / float64(branches), "B"},
		"trace.decode_ns_per_branch":      {l.nsPerBranch("trace.decode"), "ns"},
		"trace.verify_ns_per_kb":          {float64(l.sp.total("trace.verify")) / (l.values["trace.bytes"] / 1024), "ns"},
		"replay.captures":                 {float64(pc.captures) / float64(pc.passes), "count"},
		"replay.replays":                  {float64(pc.replays) / float64(pc.passes), "count"},
		"replay.block_cache_hit_ratio":    {blockCacheHitRatio(pc), "ratio"},
		"replay.capture_wait_ms":          {l.sp.meanMS("replay.capture_wait"), "ms"},
		"replay.mem_peak_mb":              {float64(pc.memPeak) / (1 << 20), "MB"},
		"sim.block_path_share":            {float64(pc.blockBranches) / float64(max(pc.branches, 1)), "ratio"},
		"sim.runner_ns_per_branch":        {l.nsPerBranch("sim.runner"), "ns"},
		"sim.scalar_ns_per_branch":        {l.nsPerBranch("sim.scalar"), "ns"},
		"telemetry.ns_per_branch":         {l.nsPerBranch("telemetry.collect"), "ns"},
		"telemetry.table_stats_ms":        {l.sp.meanMS("telemetry.table_stats"), "ms"},
		"telemetry.off_ratio":             {l.values["telemetry.off_ratio"], "ratio"},
		"obs.journal_write_ms":            {l.sp.meanMS("obs.journal_write"), "ms"},
		"obs.journal_bytes_per_arm":       {l.values["obs.journal_bytes_per_arm"], "B"},
		"obs.off_ratio":                   {l.values["obs.off_ratio"], "ratio"},
		"core.combined_ns_per_branch":     {l.nsPerBranch("core.combined"), "ns"},
		"core.static_share":               {l.values["core.static_share"], "ratio"},
		"profile.phase1_ms":               {l.sp.meanMS("profile.phase1"), "ms"},
		"experiment.hints_ms":             {l.sp.meanMS("experiment.hints"), "ms"},
		"experiment.singleflight_wait_ms": {l.sp.meanMS("experiment.singleflight_wait"), "ms"},
		"experiment.dedupe_ratio":         {dedupe, "ratio"},
		"experiment.checkpoint_write_ms":  {l.sp.meanMS("experiment.checkpoint_write"), "ms"},
		"serve.submit_ms":                 {l.sp.meanMS("serve.submit"), "ms"},
		"serve.queue_wait_ms":             {meanMS(sc.queueWait, sc.queued), "ms"},
		"serve.rejected":                  {float64(sc.rejected), "count"},
		"serveapi.roundtrip_ms":           {l.sp.meanMS("serveapi.roundtrip"), "ms"},
		"serveapi.wait_lag_ms":            {l.sp.meanMS("serve.submit") + l.sp.meanMS("serveapi.wait") - meanMS(sc.jobLatency, sc.jobs), "ms"},
		"layer_sum_ratio":                 {float64(pc.modeled) / float64(max(pc.measured, 1)), "ratio"},
		"trace_overhead_ratio":            {overhead, "ratio"},
	}
	for i, s := range kernelSchemes {
		m["predictor."+s+".ns_per_branch"] = metric{l.nsPerBranch("predictor." + s + ".tagged"), "ns"}
		if i < 5 {
			m["predictor."+s+".untagged_ns_per_branch"] = metric{l.nsPerBranch("predictor." + s + ".untagged"), "ns"}
		}
	}
	return m
}

// blockCacheHitRatio is the share of replayed chunks served from the
// decoded-block cache rather than decoded again.
func blockCacheHitRatio(pc *passCounters) float64 {
	if pc.chunksReplayed == 0 {
		return 0
	}
	return 1 - float64(pc.chunksDecoded)/float64(pc.chunksReplayed)
}
