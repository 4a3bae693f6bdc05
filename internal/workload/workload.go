// Package workload provides the benchmark programs whose branch streams
// drive the simulator.
//
// The paper instrumented SPECINT95 Alpha binaries with Atom; every
// conditional branch called into analysis code with its address and outcome.
// We reproduce that substrate with six Go programs — analogues of the
// paper's six benchmarks — whose conditional branches are routed through an
// explicit instrumentation context. Each branch site gets a stable,
// word-aligned "address" in a synthetic text segment, and each site charges
// a calibrated number of straight-line instructions so that branch density
// (CBRs/KI) lands in the paper's range.
//
// Programs expose deterministic "train" and "ref" inputs (plus a small
// "test" input for unit tests), generated from fixed seeds, so the paper's
// self-trained vs cross-trained methodology can be reproduced exactly.
package workload

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"

	"branchsim/internal/trace"
)

// Inputs every Program must provide.
const (
	InputTest  = "test"  // small; unit tests and -short benches
	InputTrain = "train" // profiling input (SPEC "train")
	InputRef   = "ref"   // measurement input (SPEC "ref")
)

// Program is one instrumented benchmark.
type Program interface {
	// Name is the registry key, e.g. "compress".
	Name() string
	// Description says what the program computes and which SPECINT95
	// benchmark it stands in for.
	Description() string
	// Run executes the program on the named input, emitting its dynamic
	// branch stream into rec. Runs are deterministic: the same input
	// always produces the identical stream. Cancelling ctx stops the run
	// cooperatively (checked every few thousand branch events); the
	// resulting error is surfaced by RunProgram.
	Run(ctx context.Context, input string, rec trace.Recorder) error
}

// Inputs lists the standard input names.
func Inputs() []string { return []string{InputTest, InputTrain, InputRef} }

var (
	registry = map[string]Program{}
	names    []string // registry's keys, sorted
)

// Register adds a program to the global registry. It panics on duplicate
// names; programs register from init functions.
func Register(p Program) {
	if _, dup := registry[p.Name()]; dup {
		panic(fmt.Sprintf("workload: duplicate program %q", p.Name()))
	}
	registry[p.Name()] = p
	i, _ := slices.BinarySearch(names, p.Name())
	names = slices.Insert(names, i, p.Name())
}

// Get returns the named program.
func Get(name string) (Program, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown program %q (known: %v)", name, Names())
	}
	return p, nil
}

// PanicError is a program panic converted into an error by RunProgram. The
// stack is captured at the panic site, before any unwinding, so it names the
// faulty predictor or workload frame.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("workload: run panicked: %v", e.Value) }

// Run looks up and executes the named program with cooperative cancellation
// and panic isolation (see RunProgram).
func Run(ctx context.Context, name, input string, rec trace.Recorder) error {
	p, err := Get(name)
	if err != nil {
		return err
	}
	return RunProgram(ctx, p, input, rec)
}

// RunProgram executes p on input, converting the two abnormal exits of a
// branch-stream producer into ordinary errors:
//
//   - cooperative cancellation (a trace.Stop panic raised by the
//     instrumentation context when ctx expires) becomes ctx's error, and
//   - any other panic — a buggy predictor, a corrupted workload — becomes a
//     *PanicError carrying the panic value and the stack of the panic site,
//
// so one faulty run can never take down a whole sweep.
func RunProgram(ctx context.Context, p Program, input string, rec trace.Recorder) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if stopErr, ok := trace.AsStop(r); ok {
			err = stopErr
			return
		}
		// debug.Stack here still sees the panicking frames: deferred
		// functions run before the stack unwinds past them.
		err = &PanicError{Value: r, Stack: debug.Stack()}
	}()
	return p.Run(ctx, input, rec)
}

// Names returns the registered program names, sorted.
func Names() []string {
	return slices.Clone(names)
}

// Suite returns the six paper-analogue programs in the paper's Table 1
// order: go, gcc, perl, m88ksim, compress, ijpeg.
func Suite() []Program {
	var out []Program
	for _, n := range []string{"go", "gcc", "perl", "m88ksim", "compress", "ijpeg"} {
		if p, ok := registry[n]; ok {
			out = append(out, p)
		}
	}
	return out
}
