package mcheck

import (
	"path/filepath"
	"testing"

	"laar/internal/chaos"
	"laar/internal/engine"
	"laar/internal/minimize"
)

// TestExploreCleanKernel is the headline safety check: the correct kernel
// has no reachable invariant violation within the default small scope.
func TestExploreCleanKernel(t *testing.T) {
	opt := DefaultOptions()
	if testing.Short() {
		opt.Depth = 6
	}
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct kernel has a counterexample:\n%s", res.Counterexample)
	}
	if res.Truncated {
		t.Fatalf("exploration truncated at %d states", res.Unique)
	}
	if res.Deepest != opt.Depth {
		t.Fatalf("deepest path %d, want full depth %d", res.Deepest, opt.Depth)
	}
	if res.Explored == 0 || res.Unique < 100 || res.Pruned == 0 {
		t.Fatalf("implausible stats: explored=%d unique=%d pruned=%d", res.Explored, res.Unique, res.Pruned)
	}
	t.Logf("explored=%d unique=%d pruned=%d deepest=%d", res.Explored, res.Unique, res.Pruned, res.Deepest)
}

// TestExploreDeterministic asserts two explorations of the same options
// yield identical statistics — the property that makes CI stats meaningful.
func TestExploreDeterministic(t *testing.T) {
	opt := DefaultOptions()
	opt.Depth = 5
	a, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	b, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if a.Explored != b.Explored || a.Unique != b.Unique || a.Pruned != b.Pruned {
		t.Fatalf("exploration not deterministic: %+v vs %+v", a, b)
	}
}

// TestExploreTruncates asserts the state cap stops the search and is
// reported.
func TestExploreTruncates(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxStates = 50
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if !res.Truncated {
		t.Fatalf("exploration with MaxStates=50 not truncated (unique=%d)", res.Unique)
	}
	if res.Unique > opt.MaxStates {
		t.Fatalf("unique states %d exceed the cap %d", res.Unique, opt.MaxStates)
	}
}

// TestExploreInjectedFaults asserts each deliberate kernel bug is caught,
// with the invariant the bug was designed to breach.
func TestExploreInjectedFaults(t *testing.T) {
	cases := []struct {
		fault Fault
		want  string
	}{
		{FaultClaimAdoptsSeen, "ballot-holder"},
		{FaultCrashKeepsPending, "no-zombie-commands"},
		{FaultDupReapplies, "proxy-monotone"},
	}
	for _, tc := range cases {
		t.Run(tc.fault.String(), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Fault = tc.fault
			res, err := Explore(opt)
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if res.Counterexample == nil {
				t.Fatalf("injected fault %v found no counterexample", tc.fault)
			}
			if res.Counterexample.Invariant != tc.want {
				t.Fatalf("fault %v breached %q, want %q", tc.fault, res.Counterexample.Invariant, tc.want)
			}
		})
	}
}

// TestShrinkInjectedFault is the acceptance path: a deliberately injected
// kernel bug yields a counterexample that shrinks to a 1-minimal schedule
// replaying to the same violation.
func TestShrinkInjectedFault(t *testing.T) {
	opt := DefaultOptions()
	opt.Fault = FaultCrashKeepsPending
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	ce := res.Counterexample
	if ce == nil {
		t.Fatalf("no counterexample for the injected fault")
	}

	sopt, sevents := Shrink(opt, ce.Events, ce.Invariant)
	if len(sevents) == 0 || len(sevents) > len(ce.Events) {
		t.Fatalf("shrink went from %d to %d events", len(ce.Events), len(sevents))
	}
	vs, _, err := Replay(sopt, sevents)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	found := false
	for _, v := range vs {
		if v.Invariant == ce.Invariant {
			found = true
		}
	}
	if !found {
		t.Fatalf("shrunk schedule does not replay to %q: %v", ce.Invariant, vs)
	}
	if !minimize.IsOneMinimal(sevents, func(evs []Event) bool {
		return failsWith(sopt, evs, ce.Invariant)
	}) {
		t.Fatalf("shrunk schedule not 1-minimal: %v", sevents)
	}
	// The injected zombie needs exactly: a tick that elects the leader, a
	// lost command that leaves one in flight, and the leader's crash.
	if len(sevents) != 3 {
		t.Fatalf("minimal schedule has %d events, want 3: %v", len(sevents), sevents)
	}
	if sopt.Instances != 1 || sopt.PEs != 1 || sopt.K != 1 {
		t.Fatalf("shrink did not minimise the world shape: %+v", sopt)
	}
	t.Logf("minimal: opts=%+v events=%v", sopt, sevents)
}

// TestShrinkClaimFaultToOneEvent: the claim bug fires on the very first
// election, so the minimal schedule is a single tick.
func TestShrinkClaimFaultToOneEvent(t *testing.T) {
	opt := DefaultOptions()
	opt.Fault = FaultClaimAdoptsSeen
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Counterexample == nil {
		t.Fatalf("no counterexample")
	}
	_, sevents := Shrink(opt, res.Counterexample.Events, res.Counterexample.Invariant)
	if len(sevents) != 1 || sevents[0].Kind != EvTick {
		t.Fatalf("minimal schedule = %v, want a single tick", sevents)
	}
}

// TestShrinkDupFault: the duplicate-reapplication bug needs exactly an
// election, one applied command, and the duplicate that rewinds the
// proxy — a 3-event minimal schedule over a single instance and slot.
func TestShrinkDupFault(t *testing.T) {
	opt := DefaultOptions()
	opt.Fault = FaultDupReapplies
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	ce := res.Counterexample
	if ce == nil {
		t.Fatalf("no counterexample for the injected fault")
	}
	sopt, sevents := Shrink(opt, ce.Events, ce.Invariant)
	if !minimize.IsOneMinimal(sevents, func(evs []Event) bool {
		return failsWith(sopt, evs, ce.Invariant)
	}) {
		t.Fatalf("shrunk schedule not 1-minimal: %v", sevents)
	}
	if len(sevents) != 3 {
		t.Fatalf("minimal schedule has %d events, want 3: %v", len(sevents), sevents)
	}
	if last := sevents[len(sevents)-1]; last.Kind != EvDupCmd {
		t.Fatalf("minimal schedule does not end in the duplicate: %v", sevents)
	}
	if sopt.Instances != 1 || sopt.PEs != 1 || sopt.K != 1 {
		t.Fatalf("shrink did not minimise the world shape: %+v", sopt)
	}
}

// TestDuplicationIsHarmless is the dedup self-test on the correct kernel:
// duplicates hammered between every protocol step — after the apply,
// after a lost ack, after a target flip with a newer command in flight —
// never violate an invariant, never toggle a replica, and never let a
// stale re-ack complete a newer command. (The exhaustive exploration
// covers these interleavings too; this test documents the exact property
// and fails with a readable schedule.)
func TestDuplicationIsHarmless(t *testing.T) {
	opt := DefaultOptions()
	opt.Instances = 1
	events := []Event{
		{Kind: EvTick},                // elects instance 0
		{Kind: EvDeliver, A: 0, B: 0}, // slot 0 activates, acked
		{Kind: EvDupCmd, B: 0},        // duplicate of the applied command
		{Kind: EvDupCmd, B: 0},        // and again
		{Kind: EvDropAck, A: 0, B: 1}, // slot 1 applies, ack lost
		{Kind: EvDupCmd, B: 1},        // the duplicate's re-ack completes it
		{Kind: EvFlip, A: 1},          // target flips: slot 1 must deactivate
		{Kind: EvTick},
		{Kind: EvDropAck, A: 0, B: 1}, // deactivation applies, ack lost again
		{Kind: EvDupCmd, B: 0},        // stale re-ack of slot 0 meanwhile
		{Kind: EvDupCmd, B: 1},        // re-ack of the deactivation completes it
	}
	vs, at, err := Replay(opt, events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("duplication schedule violates %v at event %d", vs, at)
	}

	// The same schedule minus the final re-acks, replayed by hand, pins
	// the sequencer-side property: a duplicate's re-ack names the applied
	// sequence and must not complete a newer in-flight command.
	w := newWorld(opt.withDefaults())
	for _, e := range events[:9] {
		if w.enabled(e) {
			w.apply(e)
		}
	}
	in := &w.insts[0]
	if in.ctl.Seq.Pending() != 1 {
		t.Fatalf("pending = %d after the lost deactivation ack, want 1", in.ctl.Seq.Pending())
	}
	// Duplicate of slot 0's old command: its re-ack names slot 0, not the
	// in-flight deactivation of slot 1 — pending must not move.
	w.apply(Event{Kind: EvDupCmd, B: 0})
	if in.ctl.Seq.Pending() != 1 {
		t.Fatalf("a stale duplicate re-ack completed a newer command (pending = %d)", in.ctl.Seq.Pending())
	}
	w.apply(Event{Kind: EvDupCmd, B: 1})
	if in.ctl.Seq.Pending() != 0 {
		t.Fatalf("the matching re-ack did not complete the command (pending = %d)", in.ctl.Seq.Pending())
	}
}

// TestReplaySkipsDisabled asserts a schedule whose prefix was deleted still
// replays: events the state no longer enables are skipped, not errors.
func TestReplaySkipsDisabled(t *testing.T) {
	opt := DefaultOptions()
	events := []Event{
		{Kind: EvRecover, A: 0},       // disabled: instance 0 is up
		{Kind: EvDeliver, A: 0, B: 0}, // disabled: no leader yet
		{Kind: EvHeal, A: 0, B: 1},    // disabled: link intact
		{Kind: EvTick},                // elects instance 0
		{Kind: EvCrash, A: 5},         // disabled: out of range
		{Kind: EvDeliver, A: 0, B: 0}, // enabled now
	}
	vs, _, err := Replay(opt, events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("clean schedule replayed to violations: %v", vs)
	}
}

// TestShrinkModelSchedule shrinks a hand-broken chaos-model schedule (the
// controller recoveries deleted, so the control plane never comes back) to
// its minimal failing core: one crash per controller instance.
func TestShrinkModelSchedule(t *testing.T) {
	sc := chaos.Scenario{Seed: 3, Class: chaos.CtrlCrash}
	res, err := chaos.Model(sc)
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if res.Err() != nil {
		t.Fatalf("baseline model run fails: %v", res.Err())
	}

	broken := cloneSchedule(res.Schedule)
	var kept []engine.FailureEvent
	for _, ev := range broken.Events {
		if ev.Kind != engine.ControllerRecover {
			kept = append(kept, ev)
		}
	}
	broken.Events = kept
	mr, err := chaos.ModelReplay(res.Scenario, cloneSchedule(broken))
	if err != nil {
		t.Fatalf("ModelReplay: %v", err)
	}
	if mr.Err() == nil {
		t.Fatalf("recovery-free schedule does not fail")
	}

	shrunk, smr, err := ShrinkModel(res.Scenario, broken)
	if err != nil {
		t.Fatalf("ShrinkModel: %v", err)
	}
	if smr.Err() == nil {
		t.Fatalf("shrunk schedule no longer fails")
	}
	if len(shrunk.Events) != res.Scenario.Controllers {
		t.Fatalf("shrunk to %d events, want one crash per controller (%d): %v",
			len(shrunk.Events), res.Scenario.Controllers, shrunk.Events)
	}
	for _, ev := range shrunk.Events {
		if ev.Kind != engine.ControllerCrash {
			t.Fatalf("shrunk schedule keeps a non-crash event: %+v", ev)
		}
	}
}

// TestReproRoundTrip saves and reloads both artifact kinds and asserts
// they replay to the recorded violation.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Explorer artifact.
	opt := DefaultOptions()
	opt.Fault = FaultCrashKeepsPending
	res, err := Explore(opt)
	if err != nil || res.Counterexample == nil {
		t.Fatalf("Explore: %v (ce=%v)", err, res.Counterexample)
	}
	sopt, sevents := Shrink(opt, res.Counterexample.Events, res.Counterexample.Invariant)
	ce := &Counterexample{
		Options: sopt, Events: sevents,
		Invariant: res.Counterexample.Invariant, Detail: res.Counterexample.Detail,
	}
	mpath := filepath.Join(dir, "mcheck.json")
	if err := SaveRepro(mpath, ReproFromCounterexample(ce)); err != nil {
		t.Fatalf("SaveRepro: %v", err)
	}
	loaded, err := LoadRepro(mpath)
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	verdict, err := ReplayRepro(loaded)
	if err != nil {
		t.Fatalf("ReplayRepro: %v", err)
	}
	t.Logf("mcheck artifact: %s", verdict)

	// Model artifact.
	sc := chaos.Scenario{Seed: 3, Class: chaos.CtrlCrash}
	mres, err := chaos.Model(sc)
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	broken := cloneSchedule(mres.Schedule)
	var kept []engine.FailureEvent
	for _, ev := range broken.Events {
		if ev.Kind != engine.ControllerRecover {
			kept = append(kept, ev)
		}
	}
	broken.Events = kept
	ppath := filepath.Join(dir, "model.json")
	if err := SaveRepro(ppath, ReproFromModel(mres.Scenario, broken, "recoveries deleted")); err != nil {
		t.Fatalf("SaveRepro: %v", err)
	}
	loaded, err = LoadRepro(ppath)
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if _, err := ReplayRepro(loaded); err != nil {
		t.Fatalf("ReplayRepro(model): %v", err)
	}

	// A clean artifact must report that it no longer reproduces.
	clean := ReproFromModel(mres.Scenario, mres.Schedule, "clean")
	cpath := filepath.Join(dir, "clean.json")
	if err := SaveRepro(cpath, clean); err != nil {
		t.Fatalf("SaveRepro: %v", err)
	}
	loaded, err = LoadRepro(cpath)
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if _, err := ReplayRepro(loaded); err == nil {
		t.Fatalf("clean artifact claimed to reproduce")
	}

	// Unknown kinds are rejected at load.
	bad := filepath.Join(dir, "bad.json")
	if err := SaveRepro(bad, &Repro{Kind: "nonsense"}); err != nil {
		t.Fatalf("SaveRepro: %v", err)
	}
	if _, err := LoadRepro(bad); err == nil {
		t.Fatalf("LoadRepro accepted an unknown kind")
	}
}
