package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"branchsim/internal/experiment"
)

// universe lists every arm any seed can generate, grouped by the harness
// configuration it runs under (observed arms also produce a journal).
func universe() (plain, observed []experiment.Arm) {
	seen := map[*[]experiment.Arm]map[string]bool{&plain: {}, &observed: {}}
	add := func(list *[]experiment.Arm, a experiment.Arm) {
		k := armKey(a.Workload, a.Input, a.Pred, a.Scheme)
		if !seen[list][k] {
			seen[list][k] = true
			*list = append(*list, a)
		}
	}
	for _, wl := range experiment.Suite {
		for _, p := range experiment.FivePredictors {
			for _, kb := range paperSizesKB {
				for _, s := range paperSchemes {
					add(&plain, experiment.Arm{Workload: wl, Input: offlineInput, Pred: fmt.Sprintf("%s:%dKB", p, kb), Scheme: s})
				}
			}
		}
		for _, in := range serveInputs {
			for _, spec := range serveSpecs {
				for _, s := range paperSchemes {
					add(&plain, experiment.Arm{Workload: wl, Input: in, Pred: spec, Scheme: s})
				}
			}
		}
		for _, p := range modernPredictors {
			for _, kb := range modernSizesKB {
				add(&observed, experiment.Arm{Workload: wl, Input: offlineInput, Pred: fmt.Sprintf("%s:%dKB", p, kb), Scheme: "none"})
			}
		}
	}
	return plain, observed
}

// generateExpected simulates the whole universe on the scalar path — the
// repository's oracle for the batched kernels — and writes expected.json.
// Observed arms run one per harness so that each journal holds exactly one
// arm's telemetry.
func generateExpected(ctx context.Context, path string) error {
	plain, observed := universe()
	exp := &expectedFile{
		Source:   "experiment.NewQuickHarness(WithBatch(false)).Run; journals from one observed arm per harness",
		Results:  map[string]result{},
		Journals: map[string]string{},
	}
	var mu sync.Mutex
	var firstErr error
	h := experiment.NewQuickHarness(experiment.WithWorkers(drivers), experiment.WithBatch(false))
	defer h.Close()
	parallel(len(plain), func(i int) {
		a := plain[i]
		m, err := h.Run(ctx, a)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		exp.Results[armKey(a.Workload, a.Input, a.Pred, a.Scheme)] = resultOf(m)
	})
	if firstErr != nil {
		return firstErr
	}
	dir, err := os.MkdirTemp(".", ".perfbench-gen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	parallel(len(observed), func(i int) {
		a := observed[i]
		key := armKey(a.Workload, a.Input, a.Pred, a.Scheme)
		res, digest, err := observedArm(ctx, dir, i, a)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if want, ok := exp.Results[key]; ok && want != res && firstErr == nil {
			firstErr = fmt.Errorf("%s: observed result %v differs from unobserved %v", key, res, want)
		}
		exp.Results[key] = res
		exp.Journals[key] = digest
	})
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("%d results, %d journal digests\n", len(exp.Results), len(exp.Journals))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// observedArm runs a on a fresh scalar harness with modern-observed's
// observer, journal and telemetry, and returns its result and the digest of
// its telemetry records.
func observedArm(ctx context.Context, dir string, n int, a experiment.Arm) (result, string, error) {
	w := &offline{observed: true, dir: dir, noBatch: true}
	st, err := w.setup(n, false)
	if err != nil {
		return result{}, "", err
	}
	m, err := st.h.Run(ctx, a)
	data, cerr := st.close()
	if err == nil {
		err = cerr
	}
	return resultOf(m), journalDigests(data)[a.Workload+"|"+a.Input+"|"+telemetryLabel(a)], err
}

// parallel calls fn(0..n-1) from `drivers` goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
