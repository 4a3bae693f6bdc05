// Command bptrace records workload branch streams to compact binary trace
// files (the checksummed chunk format of internal/trace, the same files the
// replay engine spills and exports), prints statistics about existing
// traces, and replays traces through predictors. Traces decouple workload
// execution from simulation: record once, sweep many predictor
// configurations.
//
// Examples:
//
//	bptrace record -workload gcc -input ref -o gcc.ref.btrc
//	bptrace stat gcc.ref.btrc
//	bptrace replay -predictor gshare:16KB gcc.ref.btrc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"branchsim"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "record":
		err = record(ctx, os.Args[2:])
	case "stat":
		err = stat(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bptrace record -workload W -input I -o FILE
  bptrace stat FILE
  bptrace replay -predictor SPEC FILE`)
}

func record(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "gcc", "workload name")
	input := fs.String("input", "train", "workload input")
	out := fs.String("o", "", "output trace path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	var counts trace.Counts
	if err := workload.Run(ctx, *wl, *input, trace.Tee(&counts, w)); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Println(recordSummary(*wl, *input, counts, fi.Size()))
	return nil
}

// recordSummary is record's report line.
func recordSummary(wl, input string, c trace.Counts, size int64) string {
	return fmt.Sprintf("recorded %s/%s: %d branches, %d instructions, %d bytes (%.2f bits/branch)",
		wl, input, c.Branches, c.Instructions, size, ratio(8*float64(size), c.Branches))
}

// ratio is num/den, or 0 for an empty trace.
func ratio(num float64, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

func stat(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stat: expected one trace file")
	}
	counts, err := replayFile(args[0], trace.Discard)
	if err != nil {
		return err
	}
	fmt.Println(statSummary(args[0], counts))
	return nil
}

// statSummary is stat's report line.
func statSummary(name string, c trace.Counts) string {
	return fmt.Sprintf("%s: %d instructions, %d branches (%.1f CBRs/KI, %.1f%% taken)",
		name, c.Instructions, c.Branches, c.CBRsPerKI(), ratio(100*float64(c.TakenCount), c.Branches))
}

// replayFile replays the trace file at path into rec and returns the
// stream's totals.
func replayFile(path string, rec trace.Recorder) (trace.Counts, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Counts{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return trace.Counts{}, err
	}
	return r.Replay(rec)
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	pred := fs.String("predictor", "gshare:16KB", "predictor spec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: expected one trace file")
	}
	m, err := replayMetrics(*pred, fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Println(m.String())
	return nil
}

// replayMetrics simulates predictor spec over the trace file at path, with
// collision tracking. A sim.Runner is a block sink, so the trace replays
// through the predictor's block kernel.
func replayMetrics(spec, path string) (sim.Metrics, error) {
	p, err := branchsim.NewPredictor(spec)
	if err != nil {
		return sim.Metrics{}, err
	}
	runner := sim.NewRunner(p, sim.WithCollisions(), sim.WithLabels(path, "trace"))
	if _, err := replayFile(path, runner); err != nil {
		return sim.Metrics{}, err
	}
	return runner.Metrics(), nil
}
