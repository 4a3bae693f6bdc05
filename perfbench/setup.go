package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// setupProbes is how many cold starts a run times for setup_s.
const setupProbes = 20

// timeSetups measures set-up as a user meets it: from starting a fresh
// process to the workload's stack being ready for its first arm or job. It
// includes process start, the program's package initialization, and
// building the harness, replay engine, observer, journal, checkpoint,
// server and listener the workload uses. Each probe is this binary run with
// --setup-probe; the run reports the median, adjusted for stolen time and
// machine speed like every other timing (see timing).
func timeSetups(opt options, t *timing) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	before := readTicks()
	var probes []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, opt)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		probes = append(probes, d.Seconds())
	}
	t.setup = scale(probes, runShare(before, readTicks()))
	return nil
}

func probeOnce(exe string, opt options) (time.Duration, error) {
	cmd := exec.Command(exe, "--setup-probe", "--workload", opt.workload, "--scratch", opt.scratch)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	el := time.Since(t0)
	werr := cmd.Wait()
	switch {
	case rerr != nil:
		return 0, fmt.Errorf("reading readiness: %v (exit: %v)", rerr, werr)
	case werr != nil:
		return 0, werr
	case strings.TrimSpace(line) != "ready":
		return 0, fmt.Errorf("unexpected readiness line %q", line)
	}
	return el, nil
}

// setupProbe is the child side: build the workload's stack, say "ready",
// tear it down.
func setupProbe(opt options) error {
	switch opt.workload {
	case "paper-grid", "modern-observed":
		st, err := newOffline(opt, nil).setup(os.Getpid(), false)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		_, err = st.close()
		return err
	case "serve-tenants":
		st, err := setupServe(context.Background(), opt.scratch)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		st.close()
		return nil
	}
	return fmt.Errorf("unknown workload %q", opt.workload)
}
