package chaos

import (
	"fmt"
	"time"

	"laar/internal/core"
	"laar/internal/live"
)

// ctrlFailSafeHorizon is the replica-side fail-safe horizon the controller
// runner arms: 12 fake seconds, the live default of 4 × HeartbeatTimeout at
// the harness's 1-second monitor interval.
const ctrlFailSafeHorizon = 12 * liveMonitor

// ControllerResult is the outcome of one control-plane chaos run: the
// scenario's controller crashes, blackouts and controller↔controller cuts
// are replayed against the live runtime's replicated control plane, and the
// run checks the control-plane invariants — at most one lease holder per
// epoch, no conflicting activation commands applied, eventual command
// convergence after every fault heals, and fail-safe reversion while the
// control plane is entirely dark.
type ControllerResult struct {
	Scenario Scenario
	Schedule *Schedule
	// Leases is the full lease history: every grant any instance claimed.
	Leases []live.LeaseGrant
	// DupEpochs lists ballot epochs granted more than once — a direct
	// violation of at-most-one-lease-holder-per-epoch.
	DupEpochs []uint64
	// Leader and Epoch identify the acting leader at quiescence (-1, 0
	// when the control plane never converged).
	Leader int
	Epoch  uint64
	// BelievedLeaders lists every instance that still believes it leads at
	// quiescence; convergence demands exactly one.
	BelievedLeaders []int
	// PendingCommands is the total of unacknowledged activation commands
	// across all instances at quiescence; convergence demands zero.
	PendingCommands int64
	// AppliedConfig is the input configuration applied at quiescence.
	AppliedConfig int
	// ActiveMismatches lists replicas whose commanded activation state
	// disagrees with the strategy's activation set for AppliedConfig — the
	// footprint of a conflicting or lost command.
	ActiveMismatches []string
	// EpochLags lists replicas still following a ballot other than the
	// acting leader's at quiescence.
	EpochLags []string
	// FailSafeExpected reports the schedule blacked out the control plane
	// for longer than the fail-safe horizon; FailSafeObserved reports a
	// replica was actually seen operating under the fail-safe rule during
	// the blackout, and FailSafeCleared that none still is at quiescence.
	FailSafeExpected, FailSafeObserved, FailSafeCleared bool
	// SplitBrain lists PEs with more than one observable primary at
	// quiescence; DarkPEs lists PEs left without any primary.
	SplitBrain, DarkPEs []int
}

// Err returns nil when every control-plane invariant held and a descriptive
// error otherwise.
func (cr *ControllerResult) Err() error {
	q := &ModelResult{
		DupEpochs: cr.DupEpochs, Leader: cr.Leader, Epoch: cr.Epoch, BelievedLeaders: cr.BelievedLeaders,
		PendingCommands: int(cr.PendingCommands), AppliedConfig: cr.AppliedConfig,
		ActiveMismatches: cr.ActiveMismatches, EpochLags: cr.EpochLags, FailSafeExpected: cr.FailSafeExpected,
		FailSafeObserved: cr.FailSafeObserved, FailSafeCleared: cr.FailSafeCleared,
	}
	for _, c := range quiescenceChecks {
		if c.failed(q) {
			return fmt.Errorf("chaos: %s (%s)", c.msg(q), cr.Schedule.Describe())
		}
	}
	switch {
	case len(cr.SplitBrain) > 0:
		return fmt.Errorf("chaos: split-brain at quiescence on PEs %v (%s)", cr.SplitBrain, cr.Schedule.Describe())
	case len(cr.DarkPEs) > 0:
		return fmt.Errorf("chaos: PEs %v dark at quiescence (%s)", cr.DarkPEs, cr.Schedule.Describe())
	}
	return nil
}

// controllerSystem is the control-plane test application: the differential
// pipeline with one twist — stage2's second replica is inactive in the low
// configuration, so every trace boundary makes the leader issue real
// activation flips and the command protocol is exercised, not just the
// lease.
func controllerSystem(duration float64) (*System, []core.ComponentID, error) {
	sys, ids, err := pipelineSystem(duration)
	if err != nil {
		return nil, nil, err
	}
	strat := sys.Strat.Clone()
	strat.Set(sys.LowCfg, 1, 1, false)
	sys.Strat = strat
	return sys, ids, nil
}

// Controller replays one scenario against the live runtime with a
// replicated control plane on a fake clock: ControllerCrash/Recover events
// kill and revive instances, the schedule's CtrlCuts partition instances
// from each other, and the input trace keeps reconfigurations flowing
// throughout. During a scheduled blackout the run watches for the
// replica-side fail-safe; after the schedule and a drain window it asserts
// the control-plane invariants (see ControllerResult).
func Controller(sc Scenario) (*ControllerResult, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	sys, ids, err := controllerSystem(sc.Duration)
	if err != nil {
		return nil, err
	}
	sched, err := BuildSchedule(sc, sys)
	if err != nil {
		return nil, err
	}
	sched.Glitch = 0

	rt, fc, net, err := newLive(sys, sched, live.Config{
		Controllers:     sc.Controllers,
		FailSafeHorizon: ctrlFailSafeHorizon,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}

	res := &ControllerResult{Scenario: sc, Schedule: sched}
	horizon := ctrlFailSafeHorizon.Seconds()
	res.FailSafeExpected = sched.Blackout[1]-sched.Blackout[0] > horizon+2*liveMonitor.Seconds()
	peID := sys.Desc.App.PEs()
	dt := liveQuantum.Seconds()
	steps := int(sc.Duration/dt + 0.5)
	downCount := make(map[[2]int]int)
	evIdx, cutIdx := 0, 0
	credit := 0.0
	for i := 0; i < steps; i++ {
		t := float64(i) * dt
		for evIdx < len(sched.Events) && sched.Events[evIdx].Time < t+dt {
			applyLiveEvent(rt, net, sys, peID, sched.Events[evIdx], downCount)
			evIdx++
		}
		for cutIdx < len(sched.CtrlCuts) && sched.CtrlCuts[cutIdx].Time < t+dt {
			cut := sched.CtrlCuts[cutIdx]
			cutIdx++
			a, b := live.ControllerEndpoint(cut.A), live.ControllerEndpoint(cut.B)
			if cut.Heal {
				net.Heal(a, b)
			} else {
				net.Cut(a, b)
			}
		}
		credit += sys.Desc.Configs[sched.Trace.ConfigAt(t)].Rates[0] * dt
		for ; credit >= 1; credit-- {
			if err := rt.Push(ids[0], i); err != nil {
				return nil, err
			}
		}
		time.Sleep(20 * time.Microsecond)
		fc.Advance(liveQuantum)
		// Inside the blackout, past the horizon: the fail-safe must be
		// visibly holding the data plane up.
		if res.FailSafeExpected && !res.FailSafeObserved &&
			t > sched.Blackout[0]+horizon && t < sched.Blackout[1] {
			for _, st := range rt.Stats() {
				if st.FailSafe {
					res.FailSafeObserved = true
					break
				}
			}
		}
	}
	// Drain: a few fake-time monitor periods with no input, so the healed
	// control plane settles one leader, re-issues any outstanding commands
	// and the measured rate decays to the low configuration.
	for i := 0; i < 120; i++ {
		fc.Advance(liveQuantum)
		time.Sleep(50 * time.Microsecond)
	}

	res.Leases = rt.LeaseHistory()
	seen := make(map[uint64]bool, len(res.Leases))
	for _, g := range res.Leases {
		if seen[g.Epoch] {
			res.DupEpochs = append(res.DupEpochs, g.Epoch)
		}
		seen[g.Epoch] = true
	}
	res.Leader, res.Epoch = rt.Leader()
	res.BelievedLeaders = rt.BelievedLeaders()
	for _, cs := range rt.ControllerStats() {
		res.PendingCommands += cs.PendingCommands
	}
	res.AppliedConfig = rt.AppliedConfig()
	res.FailSafeCleared = true
	for _, st := range rt.Stats() {
		if !st.Alive {
			continue
		}
		if st.FailSafe {
			res.FailSafeCleared = false
		}
		if want := sys.Strat.IsActive(res.AppliedConfig, st.PE, st.Replica); st.Active != want {
			res.ActiveMismatches = append(res.ActiveMismatches,
				fmt.Sprintf("(%d,%d) active=%v want %v", st.PE, st.Replica, st.Active, want))
		}
		if st.CtrlEpoch != res.Epoch {
			res.EpochLags = append(res.EpochLags,
				fmt.Sprintf("(%d,%d) epoch=%d", st.PE, st.Replica, st.CtrlEpoch))
		}
	}
	obs := rt.ObservablePrimaries()
	for pe := range obs {
		if len(obs[pe]) > 1 {
			res.SplitBrain = append(res.SplitBrain, pe)
		}
		if rt.Primary(peID[pe]) < 0 {
			res.DarkPEs = append(res.DarkPEs, pe)
		}
	}
	if _, err := rt.Stop(); err != nil {
		return nil, err
	}
	return res, nil
}
