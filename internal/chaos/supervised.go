package chaos

import (
	"fmt"
	"time"

	"laar/internal/engine"
	"laar/internal/live"
)

// SupervisedResult is the outcome of one supervised-recovery chaos run: the
// scenario's crash and partition schedule is replayed against the live
// runtime with the replica supervisor enabled, the schedule's recovery
// events are withheld, and the run asserts that the supervisor alone — via
// backed-off goroutine restarts and state re-sync — restores full
// replication with a sane primary topology.
type SupervisedResult struct {
	Scenario Scenario
	Schedule *Schedule
	// Kills counts crash events actually applied; schedule entries that
	// found the replica already dead (overlapping faults) are skipped.
	Kills int
	// Restarts is the total supervisor restart count across all replicas.
	Restarts int64
	// FullyReplicated reports whether every replica was alive at quiescence.
	FullyReplicated bool
	// SplitBrain lists PEs with more than one observable primary at
	// quiescence; DarkPEs lists PEs left without any primary.
	SplitBrain, DarkPEs []int
}

// Err returns nil when supervised recovery converged and a descriptive
// error otherwise.
func (sr *SupervisedResult) Err() error {
	switch {
	case !sr.FullyReplicated:
		return fmt.Errorf("chaos: supervisor did not restore full replication after %d kills (%d restarts, %s)",
			sr.Kills, sr.Restarts, sr.Schedule.Describe())
	case len(sr.SplitBrain) > 0:
		return fmt.Errorf("chaos: split-brain at quiescence on PEs %v (%s)", sr.SplitBrain, sr.Schedule.Describe())
	case len(sr.DarkPEs) > 0:
		return fmt.Errorf("chaos: PEs %v dark at quiescence (%s)", sr.DarkPEs, sr.Schedule.Describe())
	case sr.Kills > 0 && sr.Restarts < int64(sr.Kills):
		return fmt.Errorf("chaos: %d kills but only %d supervisor restarts (%s)",
			sr.Kills, sr.Restarts, sr.Schedule.Describe())
	}
	return nil
}

// Supervised replays one scenario against the live runtime in supervised
// mode on a fake clock: crash events become real goroutine terminations,
// link events drive an injected NetFault transport, and — crucially — the
// schedule's ReplicaUp/HostUp events are withheld, so every recovery in the
// run is the supervisor's own doing. Gray slowdowns have no live
// counterpart and are skipped. After the schedule and a drain window pass,
// the run verifies the supervisor restored every replica and elections
// settled to exactly one observable primary per PE.
func Supervised(sc Scenario) (*SupervisedResult, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	sys, ids, err := pipelineSystem(sc.Duration)
	if err != nil {
		return nil, err
	}
	sched, err := BuildSchedule(sc, sys)
	if err != nil {
		return nil, err
	}
	sched.Glitch = 0

	rt, fc, net, err := newLive(sys, sched, live.Config{
		Supervise: true,
		// Supervised runs assert the pre-fail-safe election semantics:
		// a replica cut from the controller must stay fenced however
		// long the partition lasts, as the engine model has it.
		FailSafeHorizon: -1,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}

	res := &SupervisedResult{Scenario: sc, Schedule: sched}
	peID := sys.Desc.App.PEs()
	kill := func(pe, k int) {
		if rt.KillReplica(peID[pe], k) == nil {
			res.Kills++
		}
	}
	dt := liveQuantum.Seconds()
	steps := int(sc.Duration/dt + 0.5)
	evIdx := 0
	credit := 0.0
	for i := 0; i < steps; i++ {
		t := float64(i) * dt
		for evIdx < len(sched.Events) && sched.Events[evIdx].Time < t+dt {
			ev := sched.Events[evIdx]
			evIdx++
			switch ev.Kind {
			case engine.ReplicaDown:
				kill(ev.PE, ev.Replica)
			case engine.HostDown:
				for _, pr := range sys.Asg.ReplicasOn(ev.Host) {
					kill(pr[0], pr[1])
				}
			case engine.DomainCrash:
				for _, h := range sys.Domains.HostsIn(ev.Level, ev.Host) {
					for _, pr := range sys.Asg.ReplicasOn(h) {
						kill(pr[0], pr[1])
					}
				}
				// DomainRecover withheld like the other recovery kinds.
			case engine.LinkDown:
				net.Cut(ev.Host, ev.HostB)
			case engine.LinkUp:
				net.Heal(ev.Host, ev.HostB)
				// ReplicaUp/HostUp withheld: recovery is the supervisor's job.
				// HostSlow/HostNormal have no live counterpart.
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
	}
	// Drain: give the supervisor room for its worst-case backoff ladder
	// (capped at BackoffMax = 8 × monitor interval) plus a few scans for
	// elections and views to settle, stopping early once fully replicated.
	for i := 0; i < 400; i++ {
		fc.Advance(liveQuantum)
		time.Sleep(50 * time.Microsecond)
		if i > 40 && rt.FullyReplicated() {
			break
		}
	}
	// A settle window after the last restart so heartbeats, elections and
	// replica views converge before the topology is inspected.
	for i := 0; i < 40; i++ {
		fc.Advance(liveQuantum)
		time.Sleep(50 * time.Microsecond)
	}

	res.FullyReplicated = rt.FullyReplicated()
	for _, st := range rt.Stats() {
		res.Restarts += st.Restarts
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
