package mcheck

import (
	"testing"

	"laar/internal/controlplane"
	"laar/internal/minimize"
)

// migrationOptions is the default world with staged primary-swap
// migrations enabled.
func migrationOptions() Options {
	opt := DefaultOptions()
	opt.Migration = true
	return opt
}

// TestExploreCleanMigrationKernel is the migration-protocol safety check:
// with the correct two-wave order (activate the old ∪ new union, then
// deactivate the leavers), no interleaving of flips, wave advances,
// command deliveries, losses and controller faults ever deactivates a
// PE's last active replica.
func TestExploreCleanMigrationKernel(t *testing.T) {
	opt := migrationOptions()
	if testing.Short() {
		opt.Depth = 6
	}
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct migration kernel has a counterexample:\n%s", res.Counterexample)
	}
	if res.Truncated {
		t.Fatalf("exploration truncated at %d states", res.Unique)
	}
	if res.Deepest != opt.Depth {
		t.Fatalf("deepest path %d, want full depth %d", res.Deepest, opt.Depth)
	}
	t.Logf("explored=%d unique=%d pruned=%d deepest=%d", res.Explored, res.Unique, res.Pruned, res.Deepest)
}

// TestExploreDeactivateFirstFault injects the wave-order bug — the
// activation wave presents the bare new pattern, so deactivations race
// ahead of the replacement's activation — and demands the explorer
// catches it with the IC-floor invariant.
func TestExploreDeactivateFirstFault(t *testing.T) {
	opt := migrationOptions()
	opt.Fault = FaultDeactivateFirst
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Counterexample == nil {
		t.Fatalf("deactivate-first fault found no counterexample")
	}
	if res.Counterexample.Invariant != "ic-floor-during-migration" {
		t.Fatalf("fault breached %q, want ic-floor-during-migration", res.Counterexample.Invariant)
	}
}

// TestShrinkDeactivateFirstFault is the acceptance path for the migration
// self-test: the wave-order bug's counterexample shrinks to the 1-minimal
// schedule — elect a leader, activate the old primary, flip, and deliver
// the premature deactivation that darkens the PE.
func TestShrinkDeactivateFirstFault(t *testing.T) {
	opt := migrationOptions()
	opt.Fault = FaultDeactivateFirst
	res, err := Explore(opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	ce := res.Counterexample
	if ce == nil {
		t.Fatalf("no counterexample for the injected fault")
	}

	sopt, sevents := Shrink(opt, ce.Events, ce.Invariant)
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
	// The minimal breach: a tick that elects the leader, the delivery that
	// activates the old primary, the flip that begins the migration, and
	// the premature deactivation of the old primary.
	if len(sevents) != 4 {
		t.Fatalf("minimal schedule has %d events, want 4: %v", len(sevents), sevents)
	}
	if last := sevents[len(sevents)-1]; last.Kind != EvDeliver {
		t.Fatalf("minimal schedule does not end in the premature deactivation: %v", sevents)
	}
	// The world shape floor: one instance and one PE suffice, but migration
	// mode needs both replica slots to swap between.
	if sopt.Instances != 1 || sopt.PEs != 1 || sopt.K != 2 {
		t.Fatalf("shrink did not minimise the world shape: %+v", sopt)
	}
	t.Logf("minimal: opts=%+v events=%v", sopt, sevents)
}

// TestMigrationStagingIsSafe pins the exact happy-path schedule: a full
// staged migration through the Controller — activate the joiner, whose
// acknowledgement advances the wave, then deactivate the leaver, whose
// acknowledgement retires it — replays clean and ends with only the new
// primary active.
func TestMigrationStagingIsSafe(t *testing.T) {
	opt := migrationOptions()
	opt.Instances = 1
	events := []Event{
		{Kind: EvTick},                // elects instance 0
		{Kind: EvDeliver, A: 0, B: 0}, // slot 0 (old primary) activates
		{Kind: EvFlip, A: 1},          // begin staged migration 0 → 1
		{Kind: EvDeliver, A: 0, B: 1}, // slot 1 joins → deactivation wave
		{Kind: EvDeliver, A: 0, B: 0}, // slot 0 retires → migration complete
	}
	vs, at, err := Replay(opt, events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("staged migration schedule violates %v at event %d", vs, at)
	}

	w := newWorld(opt.withDefaults())
	for _, e := range events {
		if !w.enabled(e) {
			t.Fatalf("event %v not enabled where the schedule expects it", e)
		}
		w.apply(e)
	}
	if w.active[0] || !w.active[1] {
		t.Fatalf("post-migration activation = %v, want only slot 1", w.active)
	}
	if wave := w.insts[0].ctl.Wave(); wave != controlplane.WaveIdle {
		t.Fatalf("migration did not retire (wave %d)", wave)
	}
}
