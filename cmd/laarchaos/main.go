// Command laarchaos runs seeded chaos scenarios against the LAAR runtimes
// and checks the invariant registry after every run. Each run is a pure
// function of its seed, so any violation this command reports reproduces
// from the printed seed and class alone — the sweep is fanned out across a
// worker pool, and the results are identical for every -parallel setting.
//
// Usage:
//
//	laarchaos -runs 25                       # 25 seeds across every class
//	laarchaos -seed 42 -scenario partition   # reproduce one run
//	laarchaos -runs 5 -diff                  # engine ↔ live differential mode
//	laarchaos -runs 5 -supervised            # supervised-recovery mode
//	laarchaos -runs 3 -controller            # replicated-control-plane mode
//	laarchaos -runs 100 -model               # direct control-plane model check
//	laarchaos -runs 100 -parallel 4          # bound the worker pool
//
// Beyond seeded sampling, -exhaustive explores EVERY interleaving of
// control-plane events over a small deployment of the extracted
// controlplane machines, to a depth bound, with canonical-state pruning —
// and shrinks any violation to a 1-minimal replayable schedule:
//
//	laarchaos -exhaustive -instances 2 -depth 8    # bounded exhaustive check
//	laarchaos -exhaustive -inject claim-adopts-seen -repro ce.json
//	laarchaos -runs 100 -model -shrink -repro min.json
//	laarchaos -replay ce.json                      # re-run a saved artifact
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"laar"
	"laar/internal/pprofutil"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "base seed; run i uses seed+i")
		runs       = flag.Int("runs", 1, "seeds to run per scenario class")
		scenario   = flag.String("scenario", "all", "schedule class: host-crash | correlated-crash | replica-churn | load-spike | glitch-burst | mixed | partition | gray-slow | ctrl-crash | ctrl-partition | ctrl-spike | domain-crash | checkpoint-restore | rate-shift-reconfig | reconfig-churn | all")
		diff       = flag.Bool("diff", false, "differential mode: run each scenario on the engine and the live runtime and compare sink counts")
		supervised = flag.Bool("supervised", false, "supervised-recovery mode: replay faults against the supervised live runtime, withholding scheduled recoveries")
		controller = flag.Bool("controller", false, "control-plane mode: replay controller crashes, blackouts and controller↔controller cuts against the replicated live control plane")
		model      = flag.Bool("model", false, "model-check mode: replay control-plane faults directly against the extracted controlplane machines, no engine or live runtime")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker pool size for the sweep (invariant results are identical for every setting)")
		duration   = flag.Float64("duration", 0, "trace duration in seconds (0 = scenario default)")
		pes        = flag.Int("pes", 0, "synthetic application size in PEs (0 = default)")
		hosts      = flag.Int("hosts", 0, "deployment hosts (0 = default)")
		ctrls      = flag.Int("controllers", 0, "replicated HAController instances (0 = scenario default: 3 for ctrl-* classes, 1 otherwise)")
		shards     = flag.Int("shards", 0, "engine shard count for invariant and diff runs; results are bit-identical at every setting (0 = serial)")
		icTarget   = flag.Float64("ic-target", 0, "ICGreedy strategy target (0 = default)")
		verbose    = flag.Bool("v", false, "print every run, not only violations")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		exhaustive = flag.Bool("exhaustive", false, "bounded exhaustive mode: explore every control-plane event interleaving to -depth with canonical-state pruning")
		depth      = flag.Int("depth", 8, "exhaustive mode: schedule length bound in events")
		instances  = flag.Int("instances", 2, "exhaustive mode: controller instances in the explored world")
		statesMax  = flag.Int("states-max", 0, "exhaustive mode: visited-state cap (0 = unlimited); hitting it reports a truncated search")
		inject     = flag.String("inject", "none", "exhaustive mode: deliberate kernel bug to inject: none | crash-keeps-pending | claim-adopts-seen | dup-reapplies | deactivate-first")
		migration  = flag.Bool("migration", false, "exhaustive mode: model staged primary-swap migrations (two-wave flips run by each leader's controller, waves advanced by acknowledged deliveries)")
		shrink     = flag.Bool("shrink", false, "model mode: ddmin-shrink the first failing schedule to a minimal reproducer")
		reproOut   = flag.String("repro", "", "write the (shrunk) violating schedule to this JSON artifact")
		replayPath = flag.String("replay", "", "replay a repro artifact written by -repro and exit")
	)
	flag.Parse()
	if *replayPath != "" {
		replayArtifact(*replayPath)
		return
	}
	modeFlags := 0
	for _, on := range []bool{*diff, *supervised, *controller, *model, *exhaustive} {
		if on {
			modeFlags++
		}
	}
	if modeFlags > 1 {
		fatal(fmt.Errorf("-diff, -supervised, -controller, -model and -exhaustive are mutually exclusive"))
	}
	if *exhaustive {
		runExhaustive(*instances, *depth, *statesMax, *migration, *inject, *reproOut)
		return
	}
	if *shrink && !*model {
		fatal(fmt.Errorf("-shrink requires -model (exhaustive counterexamples are shrunk automatically)"))
	}
	mode := laar.ChaosModeInvariants
	switch {
	case *diff:
		mode = laar.ChaosModeDiff
	case *supervised:
		mode = laar.ChaosModeSupervised
	case *controller:
		mode = laar.ChaosModeController
	case *model:
		mode = laar.ChaosModeModel
	}

	stopProfiles, err := pprofutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}

	classes := laar.ChaosClasses()
	if *scenario != "all" {
		c, err := laar.ParseChaosClass(*scenario)
		if err != nil {
			fatal(err)
		}
		classes = []laar.ChaosClass{c}
	}

	var scs []laar.ChaosScenario
	for _, class := range classes {
		for i := 0; i < *runs; i++ {
			scs = append(scs, laar.ChaosScenario{
				Seed:        *seed + int64(i),
				Class:       class,
				Duration:    *duration,
				NumPEs:      *pes,
				NumHosts:    *hosts,
				ICTarget:    *icTarget,
				Controllers: *ctrls,
				Shards:      *shards,
			})
		}
	}

	failed := 0
	artifactSaved := false
	for _, run := range laar.SweepChaos(scs, *parallel, mode) {
		bad := report(run, *verbose)
		failed += bad
		if bad > 0 && run.Model != nil && !artifactSaved && (*shrink || *reproOut != "") {
			shrinkModelFailure(run, *shrink, *reproOut)
			artifactSaved = true
		}
	}
	fmt.Printf("%d %s runs, %d failed\n", len(scs), mode, failed)
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// report prints one sweep outcome. Returns 1 when the run failed, else 0.
func report(run laar.ChaosSweepRun, verbose bool) int {
	sc := run.Scenario
	if run.Err != nil {
		fatal(fmt.Errorf("seed %d %s: %w", sc.Seed, sc.Class, run.Err))
	}
	if run.Diff != nil {
		if err := run.Diff.Err(); err != nil {
			fmt.Printf("seed %-4d %-16s DIVERGED %v\n", sc.Seed, sc.Class, err)
			return 1
		}
		if verbose {
			fmt.Printf("seed %-4d %-16s ok: engine %.0f vs live %.0f (tolerance %.0f)\n",
				sc.Seed, sc.Class, run.Diff.EngineSink, run.Diff.LiveSink, run.Diff.Tolerance)
		}
		return 0
	}
	if run.Supervised != nil {
		if err := run.Supervised.Err(); err != nil {
			fmt.Printf("seed %-4d %-16s NOT-RECOVERED %v\n", sc.Seed, sc.Class, err)
			return 1
		}
		if verbose {
			fmt.Printf("seed %-4d %-16s ok: %d kills, %d supervisor restarts\n",
				sc.Seed, sc.Class, run.Supervised.Kills, run.Supervised.Restarts)
		}
		return 0
	}
	if run.Controller != nil {
		if err := run.Controller.Err(); err != nil {
			fmt.Printf("seed %-4d %-16s CONTROL-PLANE %v\n", sc.Seed, sc.Class, err)
			return 1
		}
		if verbose {
			fmt.Printf("seed %-4d %-16s ok: leader %d epoch %d after %d lease grants, fail-safe observed=%v\n",
				sc.Seed, sc.Class, run.Controller.Leader, run.Controller.Epoch,
				len(run.Controller.Leases), run.Controller.FailSafeObserved)
		}
		return 0
	}
	if run.Model != nil {
		if err := run.Model.Err(); err != nil {
			fmt.Printf("seed %-4d %-16s MODEL %v\n", sc.Seed, sc.Class, err)
			return 1
		}
		if verbose {
			fmt.Printf("seed %-4d %-16s ok: leader %d epoch %d after %d claims (%d re-claims), fail-safe observed=%v\n",
				sc.Seed, sc.Class, run.Model.Leader, run.Model.Epoch,
				len(run.Model.Epochs), run.Model.Reclaims, run.Model.FailSafeObserved)
		}
		return 0
	}
	if len(run.Violations) == 0 {
		if verbose {
			fmt.Printf("seed %-4d %-16s ok: IC %.4f ≥ bound %.4f, %s\n",
				sc.Seed, sc.Class, run.Result.MeasuredIC, run.Result.BoundIC, run.Result.Schedule.Describe())
		}
		return 0
	}
	for _, v := range run.Violations {
		fmt.Printf("seed %-4d %-16s VIOLATION %v (%s)\n", sc.Seed, sc.Class, v, run.Result.Schedule.Describe())
	}
	return 1
}

// runExhaustive runs the bounded exhaustive explorer, shrinks any
// counterexample to a 1-minimal schedule, and optionally writes it as a
// replayable artifact. A violation (or a truncated search) exits nonzero.
func runExhaustive(instances, depth, statesMax int, migration bool, inject, reproOut string) {
	fault, err := laar.ParseMCheckFault(inject)
	if err != nil {
		fatal(err)
	}
	opt := laar.DefaultMCheckOptions()
	opt.Instances = instances
	opt.Depth = depth
	opt.MaxStates = statesMax
	opt.Migration = migration
	opt.Fault = fault
	res, err := laar.ExhaustiveCheck(opt)
	if err != nil {
		fatal(err)
	}
	status := "exhaustive to depth"
	if res.Truncated {
		status = "TRUNCATED at states cap, depth"
	}
	fmt.Printf("exhaustive: instances=%d pes=%d k=%d fault=%v: explored=%d unique=%d pruned=%d — %s %d\n",
		opt.Instances, opt.PEs, opt.K, opt.Fault,
		res.Explored, res.Unique, res.Pruned, status, res.Deepest)
	if res.Counterexample == nil {
		fmt.Printf("no invariant violation in any reachable state\n")
		if res.Truncated {
			os.Exit(1)
		}
		return
	}
	ce := res.Counterexample
	fmt.Printf("COUNTEREXAMPLE %s", ce)
	sopt, sevents := laar.ShrinkMCheck(opt, ce.Events, ce.Invariant)
	min := &laar.MCheckCounterexample{
		Options: sopt, Events: sevents,
		Invariant: ce.Invariant, Detail: ce.Detail,
	}
	fmt.Printf("shrunk %d → %d events (instances=%d pes=%d k=%d ttl=%d failsafe=%d):\n",
		len(ce.Events), len(sevents), sopt.Instances, sopt.PEs, sopt.K, sopt.TTL, sopt.FailSafe)
	for i, e := range sevents {
		fmt.Printf("  %2d. %s\n", i+1, e)
	}
	if reproOut != "" {
		if err := laar.SaveMCheckRepro(reproOut, laar.MCheckReproFromCounterexample(min)); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote minimal repro artifact to %s\n", reproOut)
	}
	os.Exit(1)
}

// shrinkModelFailure minimises the first failing model schedule of a sweep
// and optionally writes the result as a replayable artifact.
func shrinkModelFailure(run laar.ChaosSweepRun, shrink bool, reproOut string) {
	sc, sched := run.Scenario, run.Model.Schedule
	detail := run.Model.Err().Error()
	if shrink {
		shrunk, smr, err := laar.ShrinkModelChaos(sc, sched)
		if err != nil {
			fmt.Printf("shrink failed: %v\n", err)
		} else {
			fmt.Printf("shrunk schedule %d → %d failure events, %d → %d ctrl cuts, still: %v\n",
				len(sched.Events), len(shrunk.Events), len(sched.CtrlCuts), len(shrunk.CtrlCuts), smr.Err())
			sched, detail = shrunk, smr.Err().Error()
		}
	}
	if reproOut != "" {
		if err := laar.SaveMCheckRepro(reproOut, laar.MCheckReproFromModel(sc, sched, detail)); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote repro artifact to %s\n", reproOut)
	}
}

// replayArtifact re-runs a saved repro artifact: exits 1 while the
// recorded violation still reproduces, 0 once it no longer does.
func replayArtifact(path string) {
	r, err := laar.LoadMCheckRepro(path)
	if err != nil {
		fatal(err)
	}
	verdict, err := laar.ReplayMCheckRepro(r)
	if err != nil {
		fmt.Printf("%v\n", err)
		return
	}
	fmt.Printf("%s\n", verdict)
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "laarchaos:", err)
	os.Exit(1)
}
