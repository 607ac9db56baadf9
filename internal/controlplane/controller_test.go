package controlplane

import "testing"

// swap is the test strategy over one PE with two replicas: configuration c
// wants only replica c active.
type swap struct{}

func (swap) IsActive(cfg, _, k int) bool { return k == cfg }

func newStaged(t *testing.T) *Controller {
	t.Helper()
	return NewController(NewLeaseElector(0, 1, 3, 0), NewCommandSequencer(1, 2, RetryPolicy{Min: 1, Max: 2}), true)
}

// ack transmits the slot's due command and acknowledges it, then confirms
// the slot — one lossless command round trip. It reports whether a
// command was sent.
func ack(c *Controller, k int, want bool, now int64) (sent, done bool) {
	_, send, _ := c.Command(0, k, want, now)
	if send {
		c.Seq.Acked(0, k)
	}
	return send, c.Confirm(0, k)
}

func TestControllerStagedClaimActivatesFirst(t *testing.T) {
	c := newStaged(t)
	if ep := c.Evaluate(1, swap{}, 0); ep == 0 || !c.Lease.Leading() || c.Seq.Epoch() != ep {
		t.Fatalf("claim: ballot %d leading=%v seq epoch %d", ep, c.Lease.Leading(), c.Seq.Epoch())
	}
	if c.Wave() != WaveActivate {
		t.Fatalf("claim re-plan wave = %d, want the activation wave", c.Wave())
	}
	// Replica 1 must go down under configuration 0, but the fresh leader
	// cannot vouch for replica 0 yet: the deactivation is held back.
	if sent, _ := ack(c, 1, false, 1); sent {
		t.Fatal("claim wave deactivated before activating")
	}
	if sent, done := ack(c, 0, true, 1); !sent || !done {
		t.Fatalf("activation: sent=%v done=%v", sent, done)
	}
	if sent, _ := ack(c, 1, false, 2); !sent {
		t.Fatal("deactivation not released once the activation was confirmed")
	}
}

func TestControllerCommandHoldsDeactivations(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0)
	ack(c, 0, true, 1)
	ack(c, 1, false, 1)
	c.Switch(swap{}, 0, swap{}, 1)
	// Activation wave: the union is wanted, whatever the strategy says.
	if _, send, _ := c.Command(0, 0, false, 2); send {
		t.Fatal("old primary deactivated during the activation wave")
	}
	if _, send, _ := c.Command(0, 1, true, 2); !send {
		t.Fatal("joiner not activated")
	}
	c.Seq.Acked(0, 1)
	if c.Confirm(0, 1) || c.Wave() != WaveDeactivate {
		t.Fatalf("wave = %d after the joiner confirmed", c.Wave())
	}
	if sent, done := ack(c, 0, false, 3); !sent || !done {
		t.Fatalf("leaver: sent=%v done=%v", sent, done)
	}
	if old, new := c.Old(), c.New(); !old[0][0] || old[0][1] || new[0][0] || !new[0][1] {
		t.Fatalf("endpoints old=%v new=%v", old, new)
	}
}

func TestControllerSupersedingSwitchKeepsWants(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0)
	ack(c, 0, true, 1)
	ack(c, 1, false, 1)
	c.Switch(swap{}, 0, swap{}, 1)
	// Switch back before the joiner is confirmed: the in-flight wants
	// (both replicas) fold into the old pattern, so neither is commanded
	// down before configuration 0's primary is confirmed again.
	c.Switch(swap{}, 1, swap{}, 0)
	if old := c.Old(); !old[0][0] || !old[0][1] {
		t.Fatalf("superseding Switch dropped in-flight wants: old = %v", old)
	}
	// Replica 0 stayed confirmed, so only the joiner's retreat remains —
	// and the joiner, never commanded up, is already acknowledged down.
	if c.Wave() != WaveDeactivate {
		t.Fatalf("wave = %d, want the deactivation wave", c.Wave())
	}
	if _, send, _ := c.Command(0, 1, true, 2); send {
		t.Fatal("joiner acknowledged down was commanded again")
	}
	if !c.Confirm(0, 1) {
		t.Fatal("retreat of an already-inactive joiner did not complete the migration")
	}
}

func TestControllerSupersedeAwaitsUnconfirmedActivation(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0) // replica 0 commanded up, never confirmed
	c.Switch(swap{}, 0, swap{}, 1)
	c.Switch(swap{}, 1, swap{}, 0)
	// The flip back must await replica 0 again: it is in the old pattern
	// only as a want of the superseded waves, not as a confirmed replica,
	// so replica 1 may not be commanded down yet.
	if c.Wave() != WaveActivate {
		t.Fatalf("wave = %d, want the activation wave awaiting replica 0", c.Wave())
	}
	if cmd, send, _ := c.Command(0, 1, false, 1); send && !cmd.Active {
		t.Fatal("replica 1 deactivated before replica 0 was confirmed")
	}
}

func TestControllerReissuesSupersededCommand(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0)
	ack(c, 0, true, 1)
	ack(c, 1, false, 1)
	c.Switch(swap{}, 0, swap{}, 1)
	ack(c, 1, true, 2) // joiner confirmed → deactivation wave
	c.Command(0, 0, false, 3)
	c.Seq.Failed(0, 0, 3) // the deactivation may have been applied
	c.Switch(swap{}, 1, swap{}, 0)
	// The acked state (active) no longer vouches for replica 0: a fresh
	// activation must go out and be acknowledged before the wave advances.
	cmd, send, retry := c.Command(0, 0, true, 4)
	if !send || retry || !cmd.Active {
		t.Fatalf("superseded command: cmd=%+v send=%v retry=%v, want a fresh activation", cmd, send, retry)
	}
	if c.Confirm(0, 0) {
		t.Fatal("wave confirmed on the stale acknowledgement")
	}
}

func TestControllerStepDownAbortsWave(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0)
	c.Command(0, 0, true, 1)
	c.StepDown()
	if c.Lease.Leading() || c.Seq.Pending() != 0 || c.InFlight() {
		t.Fatalf("after StepDown: leading=%v pending=%d inflight=%v", c.Lease.Leading(), c.Seq.Pending(), c.InFlight())
	}
	// An unstaged instance has no waves: commands follow the strategy.
	u := NewController(NewLeaseElector(0, 1, 3, 0), NewCommandSequencer(1, 2, RetryPolicy{Min: 1, Max: 2}), false)
	u.Claim(nil, 0)
	if u.Staged() || u.Wave() != WaveIdle || u.Confirm(0, 0) {
		t.Fatal("unstaged instance reports a wave")
	}
	if _, send, _ := u.Command(0, 1, false, 1); !send {
		t.Fatal("unstaged deactivation held back")
	}
}

func TestControllerEvaluateYields(t *testing.T) {
	c := NewController(NewLeaseElector(1, 2, 3, 0), NewCommandSequencer(1, 2, RetryPolicy{Min: 1, Max: 2}), true)
	if ep := c.Evaluate(10, swap{}, 0); ep == 0 {
		t.Fatal("no claim with the lower peer silent")
	}
	c.Command(0, 0, true, 10)
	c.Lease.HearPeer(0, 11)
	if ep := c.Evaluate(11, swap{}, 0); ep != 0 || c.Lease.Leading() || c.Seq.Pending() != 0 || c.InFlight() {
		t.Fatalf("yield: ballot %d leading=%v pending=%d inflight=%v", ep, c.Lease.Leading(), c.Seq.Pending(), c.InFlight())
	}
}

func TestControllerSteadyStateAllocs(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0)
	ack(c, 0, true, 1)
	ack(c, 1, false, 1)
	now := int64(2)
	if n := testing.AllocsPerRun(100, func() {
		now++
		for k := 0; k < 2; k++ {
			if _, send, _ := c.Command(0, k, k == 0, now); send {
				c.Seq.Acked(0, k)
			}
			c.Confirm(0, k)
		}
	}); n != 0 {
		t.Fatalf("steady-state Command+Confirm allocates %.1f times per scan", n)
	}
}

func TestControllerSnapshotRestoreHash(t *testing.T) {
	c := newStaged(t)
	c.Claim(swap{}, 0)
	ack(c, 0, true, 1)
	ack(c, 1, false, 1)
	c.Switch(swap{}, 0, swap{}, 1)
	var s ControllerSnapshot
	c.SnapshotInto(&s)
	h := func() uint64 { f := NewFingerprint(); c.Hash(f, 5); return f.Sum() }
	before := h()
	ack(c, 1, true, 2)
	if h() == before {
		t.Fatal("wave advance did not change the hash")
	}
	c.Restore(s)
	if h() != before || c.Wave() != WaveActivate {
		t.Fatalf("restore did not rewind the wave (wave %d)", c.Wave())
	}
	// Idle sequencers hash only wave and target: the dead old pattern of a
	// finished migration does not split states.
	a, b := NewMigrationSequencer(1, 2), NewMigrationSequencer(1, 2)
	a.Begin(pat([2]bool{true, false}), pat([2]bool{true, true}))
	a.Applied(0, 1, true)
	b.Begin(pat([2]bool{false, false}), pat([2]bool{true, true}))
	b.Applied(0, 0, true)
	b.Applied(0, 1, true)
	fa, fb := NewFingerprint(), NewFingerprint()
	a.Hash(fa)
	b.Hash(fb)
	if a.InFlight() || b.InFlight() || fa.Sum() != fb.Sum() {
		t.Fatal("idle sequencers with equal targets hash differently")
	}
}
