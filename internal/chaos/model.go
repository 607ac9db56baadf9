package chaos

import (
	"errors"
	"fmt"

	"laar/internal/controlplane"
	"laar/internal/engine"
)

// Model-check cadence: one step is a quarter virtual second, mirroring the
// live driver's quantum, with the monitor period, lease TTL, retransmission
// backoff and fail-safe horizon at the live harness's defaults expressed in
// steps. The controlplane machines take abstract int64 time, so the model
// needs no clock at all — just a step counter.
const (
	modelStepsPerSec = 4
	modelMonitor     = modelStepsPerSec // 1 s
	modelLeaseTTL    = 3 * modelMonitor // 3 s, the live default
	modelRetryMin    = modelMonitor     // 1 s
	modelRetryMax    = controlplane.DefaultRetryMaxFactor * modelRetryMin
	modelFailSafe    = 12 * modelMonitor // ctrlFailSafeHorizon
	modelDrainSteps  = 120               // 30 s settle window
)

// ModelResult is the outcome of one direct model check: the scenario's
// control-plane faults are replayed against the extracted controlplane
// machines themselves — electors, sequencers, monitors, replica proxies and
// the fail-safe tracker wired together by a ~100-line pure step loop — and
// the run checks the same control-plane invariants as the live Controller
// harness. The model is the third verification target next to the engine
// and the live runtime: it exercises the decision kernel at zero runtime
// cost, so schedules that are too slow to replay on the goroutine runtime
// can still be swept densely.
type ModelResult struct {
	Scenario Scenario
	Schedule *Schedule
	// Steps is the number of model steps executed, drain included.
	Steps int
	// Epochs is every ballot ever claimed, in claim order; DupEpochs lists
	// ballots claimed more than once (must be empty).
	Epochs    []uint64
	DupEpochs []uint64
	// Reclaims counts claims made by an instance that was already leading —
	// the watermark-race path where a leader re-claims above a higher
	// ballot it learned of.
	Reclaims int
	// Leader and Epoch identify the acting leader at quiescence (-1, 0 when
	// the control plane never converged).
	Leader int
	Epoch  uint64
	// BelievedLeaders lists every instance still leading at quiescence.
	BelievedLeaders []int
	// PendingCommands is the leader's unacknowledged command count at
	// quiescence.
	PendingCommands int
	// AppliedConfig is the configuration the acting leader last committed.
	AppliedConfig int
	// ActiveMismatches lists replica slots whose activation state disagrees
	// with the strategy under AppliedConfig; EpochLags lists replica proxies
	// following a ballot other than the leader's at quiescence.
	ActiveMismatches []string
	EpochLags        []string
	// FailSafeExpected reports the schedule blacked the control plane out
	// past the fail-safe horizon; FailSafeObserved that the tracker engaged;
	// FailSafeCleared that it is disengaged at quiescence.
	FailSafeExpected, FailSafeObserved, FailSafeCleared bool
	// Migrations counts the staged migrations leaders began (reconfig
	// classes drive every configuration switch through a
	// MigrationSequencer); MigrationCycles counts those that completed both
	// waves.
	Migrations, MigrationCycles int
	// StepViolations are the per-state invariant breaches (CPRegistry plus
	// the inline ic-floor-during-migration audit) observed during the run,
	// at most one per invariant name, each annotated with the step it first
	// fired at.
	StepViolations []Violation
}

// Err returns nil when every control-plane invariant held on the model.
// All violations are aggregated into one joined error — a run that both
// loses commands and leaves the fail-safe engaged reports both breaches,
// so a shrinker minimising toward "still failing" cannot silently trade
// one violation for another unnoticed.
func (mr *ModelResult) Err() error {
	var errs []error
	for _, c := range quiescenceChecks {
		if c.failed(mr) {
			errs = append(errs, fmt.Errorf("chaos model: %s", c.msg(mr)))
		}
	}
	for _, v := range mr.StepViolations {
		errs = append(errs, fmt.Errorf("chaos model state invariant: %w", v))
	}
	if len(errs) == 0 {
		return nil
	}
	desc := "no schedule"
	if mr.Schedule != nil {
		desc = mr.Schedule.Describe()
	}
	return fmt.Errorf("%w (%s)", errors.Join(errs...), desc)
}

// modelInstance is one controller instance of the model: its Controller
// (staged for the reconfig classes) and rate monitor, its liveness, and the
// configurations of the migration it is currently driving.
type modelInstance struct {
	up             bool
	ctl            *controlplane.Controller
	mon            *controlplane.RateMonitor
	migFrom, migTo int
}

// Model replays one scenario directly on the controlplane machines. The
// replica data plane is abstracted away entirely: replicas are proxy states
// with an activation bit, transport is perfect except where the schedule
// cuts it, and time is the step counter — so the run is a pure function of
// the scenario and executes in microseconds.
func Model(sc Scenario) (*ModelResult, error) { return modelRun(sc, nil) }

// ModelReplay replays a provided schedule — typically one pruned by a
// shrinker or loaded from a serialized repro artifact — against the
// machines, instead of regenerating the schedule from the seed. The
// schedule's derived facts (last-clear time, blackout window) are
// recomputed from its events, so a schedule whose events were edited keeps
// its invariant expectations consistent.
func ModelReplay(sc Scenario, sched *Schedule) (*ModelResult, error) { return modelRun(sc, sched) }

// modelRun is the shared pure step loop of Model and ModelReplay; a nil
// schedule is built from the scenario's seed.
func modelRun(sc Scenario, sched *Schedule) (*ModelResult, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	sys, err := BuildSystem(sc)
	if err != nil {
		return nil, err
	}
	if sched == nil {
		if sched, err = BuildSchedule(sc, sys); err != nil {
			return nil, err
		}
	} else {
		sched.Renormalize(sc.Controllers, sc.Duration)
	}
	forceActivationFlips(sys)

	numPEs, repK := sys.Asg.NumPEs(), sys.Asg.K
	numCtrl := sc.Controllers
	cfgRates := make([][]float64, len(sys.Desc.Configs))
	for c := range cfgRates {
		cfgRates[c] = sys.Desc.Configs[c].Rates
	}
	maxCfg := sys.Rates.MaxConfig()
	policy := controlplane.RetryPolicy{Min: modelRetryMin, Max: modelRetryMax}

	insts := make([]*modelInstance, numCtrl)
	for i := range insts {
		insts[i] = &modelInstance{
			up: true,
			ctl: controlplane.NewController(
				controlplane.NewLeaseElector(i, numCtrl, modelLeaseTTL, 0),
				controlplane.NewCommandSequencer(numPEs, repK, policy),
				reconfigClass(sc.Class)),
			mon: controlplane.NewRateMonitor(cfgRates, maxCfg),
		}
	}
	cut := make([][]bool, numCtrl)
	for i := range cut {
		cut[i] = make([]bool, numCtrl)
	}
	proxies := make([]controlplane.ProxyState, numPEs*repK)
	active := make([]bool, numPEs*repK)
	initCfg := sched.Trace.ConfigAt(0)
	for pe := 0; pe < numPEs; pe++ {
		for k := 0; k < repK; k++ {
			active[pe*repK+k] = sys.Strat.IsActive(initCfg, pe, k)
		}
	}
	applied := initCfg
	for _, inst := range insts {
		inst.mon.SetApplied(applied)
	}
	failSafe := controlplane.NewFailSafeTracker[int64](modelFailSafe, 0)

	res := &ModelResult{Scenario: sc, Schedule: sched}
	horizon := float64(modelFailSafe) / modelStepsPerSec
	res.FailSafeExpected = sched.Blackout[1]-sched.Blackout[0] > horizon+2

	// Per-state invariant stepping: two reusable views, swapped each step,
	// checked against the CPRegistry after every model step. Each invariant
	// is recorded at most once, annotated with the step it first fired at.
	prevView, curView := NewCPView(numCtrl, numPEs*repK), NewCPView(numCtrl, numPEs*repK)
	fillView := func(v *CPView, now int64) {
		v.Now = now
		for i, inst := range insts {
			v.Instances[i] = CPInstanceView{
				Up: inst.up, Leading: inst.ctl.Lease.Leading(),
				Epoch: inst.ctl.Lease.Epoch(), MaxSeen: inst.ctl.Lease.MaxSeen(),
				SeqEpoch: inst.ctl.Seq.Epoch(), Pending: inst.ctl.Seq.Pending(),
			}
		}
		copy(v.Proxies, proxies)
		fs := failSafe.Snapshot()
		v.FailSafeEngaged, v.FailSafeHorizon, v.FailSafeLastContact = fs.Engaged, fs.Horizon, fs.LastContact
	}
	fillView(prevView, 0)
	stepSeen := map[string]bool{}
	recordStep := func(name string, err error) {
		if stepSeen[name] {
			return
		}
		stepSeen[name] = true
		res.StepViolations = append(res.StepViolations, Violation{Invariant: name, Err: err})
	}

	// Staged-migration bookkeeping: every migration a leader plans — a
	// configuration switch, or the claim re-plan from the empty pattern
	// (fromCfg < 0) — is counted and its planned triple audited against
	// the IC floor on the spot.
	curPat := newModelPattern(numPEs, repK)
	planned := func(inst *modelInstance, fromCfg, toCfg int, now int64) {
		inst.migFrom, inst.migTo = fromCfg, toCfg
		res.Migrations++
		old, new := inst.ctl.Old(), inst.ctl.New()
		if err := migrationFloorErr(sys.Rates, fromCfg, toCfg, old, controlplane.Union(nil, old, new), new); err != nil {
			recordStep("ic-floor-during-migration", fmt.Errorf("step %d (cfg %d→%d): %w", now, fromCfg, toCfg, err))
		}
	}

	dt := 1.0 / modelStepsPerSec
	steps := int(sc.Duration*modelStepsPerSec+0.5) + modelDrainSteps
	traceEnd := sc.Duration - 1e-9
	seen := make(map[uint64]bool)
	evIdx, cutIdx := 0, 0
	for now := int64(1); now <= int64(steps); now++ {
		t := float64(now-1) * dt
		for evIdx < len(sched.Events) && sched.Events[evIdx].Time < t+dt {
			ev := sched.Events[evIdx]
			evIdx++
			switch ev.Kind {
			case engine.ControllerCrash:
				// A crashed leader steps down before going inert, exactly as
				// the live ctrlTick does when it observes alive==false.
				if ev.Host < numCtrl {
					inst := insts[ev.Host]
					inst.up = false
					if inst.ctl.Lease.Leading() {
						inst.ctl.StepDown()
					}
				}
			case engine.ControllerRecover:
				// Recovery keeps the machines' state: the instance rejoins
				// the lease protocol with the ballots it knew at crash time,
				// mirroring live.RecoverController, so it can never re-claim
				// an epoch it already burned.
				if ev.Host < numCtrl {
					insts[ev.Host].up = true
				}
			}
		}
		for cutIdx < len(sched.CtrlCuts) && sched.CtrlCuts[cutIdx].Time < t+dt {
			c := sched.CtrlCuts[cutIdx]
			cutIdx++
			if c.A < numCtrl && c.B < numCtrl {
				cut[c.A][c.B] = !c.Heal
				cut[c.B][c.A] = !c.Heal
			}
		}

		// Heartbeats and watermark gossip over the uncut links.
		for i, src := range insts {
			if !src.up {
				continue
			}
			for j, dst := range insts {
				if i == j || !dst.up || cut[i][j] {
					continue
				}
				dst.ctl.Lease.HearPeer(i, now)
				dst.ctl.Lease.Observe(src.ctl.Lease.MaxSeen())
			}
		}

		// Lease evaluation, in instance order.
		for _, inst := range insts {
			if !inst.up {
				continue
			}
			leading := inst.ctl.Lease.Leading()
			epoch := inst.ctl.Evaluate(now, sys.Strat, applied)
			if epoch == 0 {
				continue
			}
			if leading {
				res.Reclaims++
			}
			if seen[epoch] {
				res.DupEpochs = append(res.DupEpochs, epoch)
			}
			seen[epoch] = true
			res.Epochs = append(res.Epochs, epoch)
			inst.mon.SetApplied(applied)
			if inst.ctl.Staged() {
				planned(inst, -1, applied, now)
			}
		}

		// Source accumulation and, on the monitor boundary, the scan.
		cfgNow := sched.Trace.ConfigAt(min(t, traceEnd))
		atBoundary := now%modelMonitor == 0
		for _, inst := range insts {
			if !inst.up {
				continue
			}
			for s, r := range cfgRates[cfgNow] {
				inst.mon.Accumulate(s, r*dt)
			}
			if atBoundary && inst.ctl.Lease.Leading() {
				if cfg := inst.mon.Scan(1.0); cfg != inst.mon.Applied() {
					if inst.ctl.Staged() {
						inst.ctl.Switch(sys.Strat, inst.mon.Applied(), sys.Strat, cfg)
						planned(inst, inst.mon.Applied(), cfg, now)
					}
					inst.mon.SetApplied(cfg)
					applied = cfg
				}
			}
		}

		// Leading instances drive the command protocol against the proxies.
		anyLeader := false
		for _, inst := range insts {
			if !inst.up || !inst.ctl.Lease.Leading() {
				continue
			}
			anyLeader = true
			wantCfg := inst.mon.Applied()
			for pe := 0; pe < numPEs; pe++ {
				for k := 0; k < repK; k++ {
					cmd, send, _ := inst.ctl.Command(pe, k, sys.Strat.IsActive(wantCfg, pe, k), now)
					if send {
						p := &proxies[pe*repK+k]
						switch p.Admit(cmd.Epoch, cmd.Seq) {
						case controlplane.CmdApplied:
							active[pe*repK+k] = cmd.Active
							fallthrough
						case controlplane.CmdDuplicate:
							inst.ctl.Seq.Acked(pe, k)
						case controlplane.CmdStale:
							// NACK: the replica reports its adopted ballot; the
							// deposed leader re-claims above it next step.
							inst.ctl.Lease.Observe(p.Epoch)
							inst.ctl.Seq.Failed(pe, k, now)
						}
					}
					if inst.ctl.Confirm(pe, k) {
						res.MigrationCycles++
					}
				}
			}
			if inst.ctl.InFlight() {
				// Between the waves the deployment runs the live pattern, not
				// either endpoint: audit the actual activation state against
				// the migration's IC floor at every intermediate step.
				for pe := 0; pe < numPEs; pe++ {
					for k := 0; k < repK; k++ {
						curPat[pe][k] = active[pe*repK+k]
					}
				}
				if err := patternFloorErr(sys.Rates, inst.migFrom, inst.migTo, inst.ctl.Old(), curPat, inst.ctl.New()); err != nil {
					recordStep("ic-floor-during-migration", fmt.Errorf("step %d: live %w", now, err))
				}
			}
		}

		// Replica-side fail-safe: contact whenever some leader is up.
		if anyLeader {
			failSafe.Contact(now)
			failSafe.Clear()
		} else if failSafe.Engage(now) {
			res.FailSafeObserved = true
		}

		fillView(curView, now)
		for _, v := range CheckCPStep(prevView, curView) {
			recordStep(v.Invariant, fmt.Errorf("step %d: %w", now, v.Err))
		}
		prevView, curView = curView, prevView
	}
	res.Steps = steps

	res.Leader, res.Epoch = -1, 0
	for i, inst := range insts {
		if inst.up && inst.ctl.Lease.Leading() {
			res.BelievedLeaders = append(res.BelievedLeaders, i)
			if res.Leader < 0 || inst.ctl.Lease.Epoch() > res.Epoch {
				res.Leader, res.Epoch = i, inst.ctl.Lease.Epoch()
			}
		}
	}
	res.FailSafeCleared = !failSafe.Engaged()
	if res.Leader >= 0 {
		leader := insts[res.Leader]
		res.PendingCommands = leader.ctl.Seq.Pending()
		res.AppliedConfig = leader.mon.Applied()
		for pe := 0; pe < numPEs; pe++ {
			for k := 0; k < repK; k++ {
				if want := sys.Strat.IsActive(res.AppliedConfig, pe, k); active[pe*repK+k] != want {
					res.ActiveMismatches = append(res.ActiveMismatches,
						fmt.Sprintf("(%d,%d) active=%v want %v", pe, k, active[pe*repK+k], want))
				}
				if p := proxies[pe*repK+k]; p.Epoch != res.Epoch {
					res.EpochLags = append(res.EpochLags,
						fmt.Sprintf("(%d,%d) epoch=%d", pe, k, p.Epoch))
				}
			}
		}
	}
	return res, nil
}

// newModelPattern allocates an all-false [pe][replica] activation pattern.
func newModelPattern(numPEs, k int) [][]bool {
	p := make([][]bool, numPEs)
	for pe := range p {
		p[pe] = make([]bool, k)
	}
	return p
}

// forceActivationFlips mirrors controllerSystem's twist on a generated
// system: deactivate one doubly-covered replica in the low configuration so
// trace boundaries force real activation commands, exercising the sequencer
// rather than just the lease. A system whose strategy has no doubly-covered
// replica is left unchanged.
func forceActivationFlips(sys *System) {
	if sys.LowCfg == sys.HighCfg {
		return
	}
	for pe := 0; pe < sys.Asg.NumPEs(); pe++ {
		if sys.Strat.IsActive(sys.LowCfg, pe, 0) && sys.Strat.IsActive(sys.LowCfg, pe, 1) &&
			sys.Strat.IsActive(sys.HighCfg, pe, 1) {
			strat := sys.Strat.Clone()
			strat.Set(sys.LowCfg, pe, 1, false)
			sys.Strat = strat
			return
		}
	}
}
