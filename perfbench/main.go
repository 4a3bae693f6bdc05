// Command perfbench is branchsim's benchmark. One invocation runs one
// workload for a fixed time and prints its metrics; the last line of
// standard output is a JSON object with the keys correct, attempted, failed
// and metrics.
//
//	perfbench --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics;
// --trace 1 runs it again with spans around every call the benchmark makes
// into the program, plus per-layer probes, and reports the per-layer
// metrics. Every simulated result is checked against expected.json, which
// `perfbench --gen-expected` regenerates from the scalar simulation path.
// `perfbench --compare a.json b.json` compares two results saved with --out
// and refuses when they come from different machines.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads lists the benchmark's workloads in the order they are run by
// --workload all.
var workloads = []string{"paper-grid", "modern-observed", "serve-tenants"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scratch is a directory the run may write (journals, checkpoints).
	scratch string
}

func main() {
	var (
		opt         options
		traceFlag   int
		out         string
		genExpected string
		compare     bool
		probe       bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+fmt.Sprint(workloads)+" or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's arms and jobs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&opt.scratch, "scratch", "", "directory for journals and checkpoints (default: a fresh one under the working directory)")
	flag.StringVar(&out, "out", "", "also write the result with the machine fingerprint to this file")
	flag.StringVar(&genExpected, "gen-expected", "", "regenerate the oracle into this file and exit")
	flag.BoolVar(&compare, "compare", false, "compare the two result files given as arguments")
	flag.BoolVar(&probe, "setup-probe", false, "build the workload's stack, print ready and exit (times set-up)")
	flag.Parse()
	opt.trace = traceFlag == 1

	var err error
	switch {
	case compare:
		err = compareFiles(flag.Args())
	case probe:
		err = setupProbe(opt)
	case genExpected != "":
		err = generateExpected(context.Background(), genExpected)
	default:
		err = runMain(opt, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(opt options, out string) error {
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloads
	}
	fp := fingerprint()
	fmt.Printf("machine: %s\n", fp)
	for _, name := range names {
		o := opt
		o.workload = name
		rep, err := runOne(o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if out != "" {
			path := out
			if len(names) > 1 {
				path += "." + name
			}
			if err := saveResult(path, name, o, fp, rep); err != nil {
				return err
			}
		}
		fmt.Println(string(line))
	}
	return nil
}

// runOne runs one workload in a scratch directory it removes afterwards.
func runOne(opt options) (*report, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	if opt.scratch == "" {
		dir, err := os.MkdirTemp(".", ".perfbench-run-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opt.scratch = dir
	}
	abs, err := filepath.Abs(opt.scratch)
	if err != nil {
		return nil, err
	}
	opt.scratch = abs
	g := newGate(want)
	ctx := context.Background()
	var m map[string]metric
	switch opt.workload {
	case "paper-grid", "modern-observed":
		m, err = runOffline(ctx, opt, g, nil)
	case "serve-tenants":
		m, err = runServe(ctx, opt, g)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", opt.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	attempted, failed := g.counts()
	for _, n := range g.notes {
		fmt.Println("FAILED:", n)
	}
	fmt.Printf("%-34s %14.6g %s (%d of %d ops)\n", "failed_ratio", g.failedRatio(), "ratio", failed, attempted)
	printMetrics(m)
	return &report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func printMetrics(m map[string]metric) {
	for _, n := range sortedKeys(m) {
		fmt.Printf("%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// timing collects the samples the end-to-end metrics are computed from.
// Samples are adjusted for stolen CPU time (runShare) as they are added;
// endToEnd then scales every time by the run's median machine speed
// (speed). rawWalls keeps the unadjusted pass times for the summary.
type timing struct {
	setup    []float64 // seconds
	walls    []float64 // seconds per pass or round
	rawWalls []float64
	shares   []float64
	speeds   []float64
	armMS    []float64
	jobMS    []float64
	rssMB    []float64
	cpuS     []float64
	branches uint64
	measured float64 // seconds, adjusted for stolen time
	elapsed  float64 // seconds of pass wall time, unadjusted
}

// addPass records one pass (or round) that ran with the given run share,
// with the machine speed measured just before it.
func (t *timing) addPass(wall time.Duration, share, speed, cpu float64, armMS, jobMS []float64, branches uint64) {
	t.walls = append(t.walls, wall.Seconds()*share)
	t.rawWalls = append(t.rawWalls, wall.Seconds())
	t.shares = append(t.shares, share)
	t.speeds = append(t.speeds, speed)
	t.armMS = append(t.armMS, scale(armMS, share)...)
	t.jobMS = append(t.jobMS, scale(jobMS, share)...)
	t.rssMB = append(t.rssMB, peakRSSMB())
	t.cpuS = append(t.cpuS, cpu)
	t.branches += branches
	t.measured += wall.Seconds() * share
	t.elapsed += wall.Seconds()
}

// endToEnd turns the samples into the end-to-end metrics.
func (t *timing) endToEnd() map[string]metric {
	sp := median(t.speeds)
	armTail, armN := tail(t.armMS)
	jobTail, jobN := tail(t.jobMS)
	fmt.Printf("samples: %d set-ups, %d passes, %d arms (tail = p%.1f), %d jobs (tail = p%.1f)\n",
		len(t.setup), len(t.walls), armN, tailPercentile(armN), jobN, tailPercentile(jobN))
	fmt.Printf("unadjusted: pass wall median %.4f s; run share median %.3f (min %.3f); speed median %.3f\n",
		median(t.rawWalls), median(t.shares), sortedCopy(t.shares)[0], sp)
	return map[string]metric{
		"setup_s":            {median(t.setup) * sp, "s"},
		"wall_s":             {median(t.walls) * sp, "s"},
		"cpu_s":              {median(t.cpuS) * sp, "s"},
		"sim_branches_per_s": {float64(t.branches) / (t.measured * sp), "1/s"},
		"arm_p50_ms":         {median(t.armMS) * sp, "ms"},
		"arm_tail_ms":        {armTail * sp, "ms"},
		"job_p50_ms":         {median(t.jobMS) * sp, "ms"},
		"job_tail_ms":        {jobTail * sp, "ms"},
		"peak_rss_mb":        {median(t.rssMB), "MB"},
	}
}
