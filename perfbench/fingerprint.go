package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// machine identifies the hardware and toolchain a result was measured on.
// Results are comparable only between identical fingerprints.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (m machine) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", m.CPU, m.NumCPU, m.GOMAXPROCS, m.Go)
}

func fingerprint() machine {
	return machine{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// savedResult is what --out writes: one workload's report with the settings
// and machine it came from.
type savedResult struct {
	Machine  machine `json:"machine"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Report   *report `json:"report"`
}

func saveResult(path, name string, opt options, m machine, rep *report) error {
	data, err := json.MarshalIndent(savedResult{m, name, opt.seed, opt.seconds, opt.trace, rep}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareFiles prints each metric of two saved results side by side. It
// refuses results measured on different machines or toolchains, and
// results of different workloads or run lengths.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare needs two result files")
	}
	var rs [2]savedResult
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if rs[i].Report == nil {
			return fmt.Errorf("%s: no report", p)
		}
	}
	a, b := rs[0], rs[1]
	if a.Machine != b.Machine {
		return fmt.Errorf("refusing to compare results from different machines:\n  %s\n  %s", a.Machine, b.Machine)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s/%gs/trace=%v with %s/%gs/trace=%v",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	fmt.Printf("machine: %s\nworkload: %s (seeds %d and %d)\n", a.Machine, a.Workload, a.Seed, b.Seed)
	for _, name := range sortedKeys(a.Report.Metrics) {
		x := a.Report.Metrics[name]
		y, ok := b.Report.Metrics[name]
		if !ok {
			fmt.Printf("%-34s %14.6g %-6s %14s\n", name, x.Value, x.Unit, "absent")
			continue
		}
		fmt.Printf("%-34s %14.6g %14.6g %-6s %+7.1f%%\n", name, x.Value, y.Value, x.Unit, 100*(y.Value/x.Value-1))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
