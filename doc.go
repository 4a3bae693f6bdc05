// Package branchsim is a trace-driven branch-prediction laboratory
// reproducing Patil & Emer, "Combining Static and Dynamic Branch Prediction
// to Reduce Destructive Aliasing" (HPCA 2000).
//
// The library has four layers, each usable on its own:
//
//   - Dynamic predictors (internal/predictor, constructed here via
//     [NewPredictor]): bimodal, ghist, gshare, bi-mode, 2bcgskew and several
//     related designs, all behind one Predict/Update interface with optional
//     collision instrumentation.
//
//   - Workloads (internal/workload, run via [Simulate]): six instrumented
//     benchmark programs standing in for the paper's SPECINT95 suite, with
//     deterministic train/ref inputs.
//
//   - The paper's contribution (internal/core): profile-guided selection of
//     statically predicted branches ([Static95], [StaticAcc], …) and the
//     [Combine] wrapper that applies the resulting hints around any dynamic
//     predictor, optionally shifting static outcomes into its global
//     history.
//
//   - Experiments (internal/experiment, cmd/bpexperiment): one registered
//     experiment per table and figure of the paper, plus ablations.
//
// # Quick start
//
//	m, _ := branchsim.Simulate(ctx,
//		branchsim.Workload("gcc"),
//		branchsim.Input(branchsim.InputRef),
//		branchsim.WithPredictorSpec("gshare:16KB"),
//	)
//	fmt.Printf("%.2f mispredicts/KI\n", m.MISPKI())
//
// To reproduce the paper's combined scheme:
//
//	db := branchsim.NewProfileDB("gcc", "train")
//	branchsim.Simulate(ctx,
//		branchsim.Workload("gcc"), branchsim.Input("train"),
//		branchsim.WithPredictorSpec("gshare:16KB"),
//		branchsim.WithCollisions(), branchsim.WithProfileInto(db))
//	hints, _ := branchsim.SelectHints(branchsim.StaticAcc{}, db)
//	p, _ := branchsim.NewPredictor("gshare:16KB")
//	m, _ = branchsim.Simulate(ctx,
//		branchsim.Workload("gcc"), branchsim.Input(branchsim.InputRef),
//		branchsim.WithPredictor(branchsim.Combine(p, hints, branchsim.NoShift)),
//	)
//
// Runs are observable: attach a sink built with [NewObserver] via
// [WithObserver] to stream live counters (optionally over HTTP with
// Observer.Serve) and journal one [ArmRecord] per completed run.
package branchsim
