package mcheck

import (
	"fmt"

	"laar/internal/chaos"
	"laar/internal/engine"
	"laar/internal/minimize"
)

// failsWith reports whether replaying events under opt reproduces a
// violation of the named invariant — the shrinker's "still failing"
// predicate. Pinning the invariant name keeps minimisation from silently
// trading one violation for a different, easier-to-reach one.
func failsWith(opt Options, events []Event, invariant string) bool {
	vs, _, err := Replay(opt, events)
	if err != nil {
		return false
	}
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// Shrink minimises a counterexample along three dimensions, in order:
// event deletion (ddmin to a 1-minimal schedule), instance-count reduction
// (dropping events that reference removed instances), and parameter
// lowering (TTL, fail-safe horizon, retransmission band, replica shape).
// Every reduction is kept only if the shrunk schedule still replays to the
// same invariant violation. The result is 1-minimal in its events: no
// single event can be deleted without losing the violation.
func Shrink(opt Options, events []Event, invariant string) (Options, []Event) {
	ddmin := func() {
		events = minimize.Minimize(events, func(evs []Event) bool {
			return failsWith(opt, evs, invariant)
		})
	}
	ddmin()

	// Instance reduction: drop the highest instance and every event that
	// references it, as long as the violation survives.
	for opt.Instances > 1 {
		o2 := opt
		o2.Instances--
		evs2 := filterInstances(events, o2.Instances)
		if !failsWith(o2, evs2, invariant) {
			break
		}
		opt, events = o2, evs2
		ddmin()
	}

	// Replica-shape reduction: fewer replicas per PE, then fewer PEs,
	// remapping the surviving slot references.
	tryShape := func(pes, k int) bool {
		o2 := opt
		o2.PEs, o2.K = pes, k
		evs2 := remapSlots(events, opt.K, pes, k)
		if !failsWith(o2, evs2, invariant) {
			return false
		}
		opt, events = o2, evs2
		ddmin()
		return true
	}
	for opt.K > 1 && tryShape(opt.PEs, opt.K-1) {
	}
	for opt.PEs > 1 && tryShape(opt.PEs-1, opt.K) {
	}

	// Parameter lowering, one unit at a time while the violation survives.
	lower := func(get func(*Options) *int64, floor int64) {
		for {
			o2 := opt
			p := get(&o2)
			if *p <= floor {
				return
			}
			*p--
			if !failsWith(o2, events, invariant) {
				return
			}
			opt = o2
		}
	}
	lower(func(o *Options) *int64 { return &o.TTL }, 1)
	lower(func(o *Options) *int64 { return &o.FailSafe }, 1)
	lower(func(o *Options) *int64 { return &o.RetryMin }, 1)
	lower(func(o *Options) *int64 { return &o.RetryMax }, opt.RetryMin)

	ddmin()
	if len(events) > 0 && len(events) < opt.Depth {
		opt.Depth = len(events)
	}
	return opt, events
}

// filterInstances keeps only events whose instance operands are below n.
func filterInstances(events []Event, n int) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		switch e.Kind {
		case EvCrash, EvRecover, EvDeliver, EvDropCmd, EvDropAck:
			if e.A >= n {
				continue
			}
		case EvCut, EvHeal:
			if e.A >= n || e.B >= n {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// remapSlots rewrites command-event slot references from an oldK replica
// shape to a newPEs × newK one, dropping events whose slot no longer
// exists.
func remapSlots(events []Event, oldK, newPEs, newK int) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		switch e.Kind {
		case EvDeliver, EvDropCmd, EvDropAck:
			pe, k := e.B/oldK, e.B%oldK
			if pe >= newPEs || k >= newK {
				continue
			}
			e.B = pe*newK + k
		}
		out = append(out, e)
	}
	return out
}

// modelSignature summarises which of a model run's invariants failed, as a
// set of stable codes — the identity the model shrinker preserves.
func modelSignature(mr *chaos.ModelResult) map[string]bool {
	sig := map[string]bool{}
	for _, code := range mr.FailureCodes() {
		sig[code] = true
	}
	return sig
}

// coversSignature reports whether got reproduces every failure code in
// want.
func coversSignature(got, want map[string]bool) bool {
	for code := range want {
		if !got[code] {
			return false
		}
	}
	return true
}

// cloneSchedule copies a schedule's mutable slices; the trace is shared
// (replays never mutate it).
func cloneSchedule(sd *chaos.Schedule) *chaos.Schedule {
	out := *sd
	out.Events = append([]engine.FailureEvent(nil), sd.Events...)
	out.CtrlCuts = append([]chaos.CtrlCut(nil), sd.CtrlCuts...)
	return &out
}

// ShrinkModel minimises a failing chaos-model schedule: failure events and
// controller link cuts are each ddmin-reduced while the replayed run keeps
// failing with at least the original failure signature. It returns the
// shrunk schedule and its replay result, or an error when the input run
// does not fail at all.
func ShrinkModel(sc chaos.Scenario, sched *chaos.Schedule) (*chaos.Schedule, *chaos.ModelResult, error) {
	base, err := chaos.ModelReplay(sc, cloneSchedule(sched))
	if err != nil {
		return nil, nil, err
	}
	if base.Err() == nil {
		return nil, nil, fmt.Errorf("mcheck: schedule does not fail; nothing to shrink")
	}
	want := modelSignature(base)

	fails := func(events []engine.FailureEvent, cuts []chaos.CtrlCut) bool {
		s2 := cloneSchedule(sched)
		s2.Events, s2.CtrlCuts = events, cuts
		mr, err := chaos.ModelReplay(sc, s2)
		return err == nil && coversSignature(modelSignature(mr), want)
	}
	events := minimize.Minimize(sched.Events, func(evs []engine.FailureEvent) bool {
		return fails(evs, sched.CtrlCuts)
	})
	cuts := minimize.Minimize(sched.CtrlCuts, func(c []chaos.CtrlCut) bool {
		return fails(events, c)
	})

	out := cloneSchedule(sched)
	out.Events, out.CtrlCuts = events, cuts
	mr, err := chaos.ModelReplay(sc, out)
	if err != nil {
		return nil, nil, err
	}
	return out, mr, nil
}
