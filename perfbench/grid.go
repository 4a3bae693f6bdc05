package main

import (
	"fmt"
	"math/rand"
	"sort"

	"branchsim/internal/experiment"
	"branchsim/internal/workload"
	"branchsim/serveapi"
)

// Every input the benchmark feeds the program is generated here from the
// --seed argument; the program only ever sees the resulting arms and jobs.
// A run is a series of passes (serve-tenants: rounds), and pass k's grid
// comes from (seed, k): the same seed always gives the same series, and a
// run's medians cover many grids, so they do not hang on how one grid
// happened to assign, say, the largest table to the largest workload.

// passRand is the generator of pass k of a seed.
func passRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
}

var (
	// paperSizesKB is the paper's table-size range (Figures 1–6).
	paperSizesKB = []int{1, 2, 4, 8, 16, 32, 64}
	// modernSizesKB is the size range of the modern-observed predictors.
	modernSizesKB = []int{4, 8, 16, 32}
	// modernPredictors are two paper predictors and the two tagged/neural
	// ones that have no batch kernel.
	modernPredictors = []string{"gshare", "2bcgskew", "tage", "perceptron"}
	// paperSchemes are the three bars of Figures 7–12.
	paperSchemes = []string{"none", "static95", "staticacc"}
	// serveSpecs is the predictor pool tenants draw job grids from.
	serveSpecs = []string{
		"bimodal:2KB", "bimodal:8KB", "ghist:2KB", "ghist:8KB", "gshare:2KB",
		"gshare:8KB", "bimode:2KB", "bimode:8KB", "2bcgskew:2KB", "2bcgskew:8KB",
	}
	// serveInputs are the inputs every tenant job spans. Only test: with
	// train, one round of twelve jobs takes about 17 s and 380 MB on two
	// CPUs, too long to hold many jobs in a run.
	serveInputs = []string{workload.InputTest}
)

// offlineInput is the measurement input of the offline workloads. The quick
// harness measures on train by default; the arms pin test so that one full
// grid pass takes about a second on two CPUs and a run holds many passes.
const offlineInput = workload.InputTest

// offlineJob is the unit one closed-loop driver takes at a time: the arms
// of one figure bar group (paper-grid) or a single arm (modern-observed),
// run back to back through Harness.Run.
type offlineJob struct {
	Name string
	Arms []experiment.Arm
}

// paperGrid is Figures 7–12 at quick scale: the six workloads × the five
// paper predictors × {none, static95, staticacc}. The seed picks one table
// size per (workload, predictor) from 1–64KB and shuffles the order of the
// bar groups. Sizes are stratified so that every seed does about the same
// work: each workload gets five different sizes, and across the grid every
// size is used four or five times. Within a group the bars run in figure
// order, as bpexperiment runs them; the order matters, because the replay
// engine builds its decoded-block cache only when the arm that captures a
// workload has a batch kernel, which a static95 arm's bias-only profile has
// not.
func paperGrid(seed int64, pass int) []offlineJob {
	rng := passRand(seed, pass)
	sizes := shuffled(rng, paperSizesKB)
	var jobs []offlineJob
	for w, wl := range experiment.Suite {
		preds := shuffled(rng, experiment.FivePredictors)
		for j, p := range preds {
			spec := fmt.Sprintf("%s:%dKB", p, sizes[(len(preds)*w+j)%len(sizes)])
			job := offlineJob{Name: wl + "/" + spec}
			for _, s := range paperSchemes {
				job.Arms = append(job.Arms, experiment.Arm{Workload: wl, Input: offlineInput, Pred: spec, Scheme: s})
			}
			jobs = append(jobs, job)
		}
	}
	return shuffled(rng, jobs)
}

// modernGrid is the six workloads × {gshare, 2bcgskew, tage, perceptron}
// with scheme none; the seed assigns each workload's four predictors the
// four sizes from 4–32KB in some order. Each arm is a job of its own, and
// the jobs run in suite order with the predictors in the order listed: a
// workload is therefore always captured by an arm with a batch kernel (see
// paperGrid), and the drivers finish a pass together, so that the pass time
// measures the arms rather than how unevenly a seed's order split them.
func modernGrid(seed int64, pass int) []offlineJob {
	rng := passRand(seed, pass)
	var jobs []offlineJob
	for _, wl := range experiment.Suite {
		sizes := shuffled(rng, modernSizesKB)
		for i, p := range modernPredictors {
			spec := fmt.Sprintf("%s:%dKB", p, sizes[i])
			a := experiment.Arm{Workload: wl, Input: offlineInput, Pred: spec, Scheme: "none"}
			jobs = append(jobs, offlineJob{Name: wl + "/" + spec, Arms: []experiment.Arm{a}})
		}
	}
	return jobs
}

// shuffled returns a seed-shuffled copy of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// serveSteps is the number of jobs each tenant submits per serve round.
const serveSteps = 6

// serveRound generates round r of serve-tenants: for each of the two
// tenants, serveSteps job specs submitted one after another. A job is 1–2
// workloads × serveInputs × 2–3 predictor specs × 1–2 schemes. At every
// step both tenants share the workloads, inputs and schemes, and tenant B
// reuses about half of tenant A's specs, so about half of B's arms are
// deduplicated against A's. Each round visits every workload at least once,
// and the 1-vs-2 workload, spec and scheme counts are balanced across the
// round, so rounds of different seeds cost about the same.
func serveRound(seed int64, r int) [2][]*serveapi.JobSpec {
	rng := passRand(seed, r)
	perm := rng.Perm(len(experiment.Suite))
	nWL := balanced(rng, serveSteps, 1, 2)
	nSpec := balanced(rng, serveSteps, 2, 3)
	nScheme := balanced(rng, serveSteps, 1, 2)
	var out [2][]*serveapi.JobSpec
	for s := 0; s < serveSteps; s++ {
		var wls []string
		for i := 0; i < nWL[s]; i++ {
			wls = append(wls, experiment.Suite[perm[(s+i*serveSteps/2)%len(perm)]])
		}
		specs := rng.Perm(len(serveSpecs))
		k := nSpec[s]
		shared := (k + 1) / 2
		var a, b []string
		for i := 0; i < k; i++ {
			a = append(a, serveSpecs[specs[i]])
		}
		b = append(b, a[:shared]...)
		for i := k; len(b) < k; i++ {
			b = append(b, serveSpecs[specs[i]])
		}
		schemes := subset(rng, paperSchemes, nScheme[s])
		for t, preds := range [2][]string{a, b} {
			out[t] = append(out[t], &serveapi.JobSpec{
				Name:       fmt.Sprintf("r%d-s%d-%s", r, s, tenantNames[t]),
				Workloads:  append([]string(nil), wls...),
				Inputs:     append([]string(nil), serveInputs...),
				Predictors: append([]string(nil), preds...),
				Schemes:    append([]string(nil), schemes...),
			})
		}
	}
	return out
}

// subset returns k seed-chosen elements of xs, in their order in xs.
func subset[T any](rng *rand.Rand, xs []T, k int) []T {
	keep := rng.Perm(len(xs))[:k]
	sort.Ints(keep)
	out := make([]T, k)
	for i, j := range keep {
		out[i] = xs[j]
	}
	return out
}

// tenantNames are the two serve-tenants clients.
var tenantNames = [2]string{"tenant-a", "tenant-b"}

// balanced returns n values, half lo and half hi (the odd one out drawn at
// random), in seed-shuffled order.
func balanced(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		if i < n/2 {
			out[i] = lo
		} else {
			out[i] = hi
		}
	}
	if n%2 == 1 && rng.Intn(2) == 0 {
		out[n-1] = lo
	}
	return shuffled(rng, out)
}
