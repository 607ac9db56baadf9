package controlplane

// Pattern is an activation strategy: whether replica k of PE pe is active
// under input configuration cfg. core.Strategy satisfies it.
type Pattern interface {
	IsActive(cfg, pe, k int) bool
}

// Controller is one HAController instance's decision loop: its lease
// elector, its command sequencer and, when staged, its migration sequencer
// with the pattern scratch migrations are planned in. It owns the
// transitions whose steps must stay in order — claim, step-down, switch,
// and the wave-gated command and confirmation of each slot — so every
// runtime drives the same code for them. Drivers keep their transport,
// mailboxes and statistics, and feed heartbeats, ballots and acks straight
// into Lease and Seq. A Controller is not safe for concurrent use.
type Controller struct {
	Lease *LeaseElector
	Seq   *CommandSequencer

	mig      *MigrationSequencer // nil unless staged
	old, new [][]bool            // endpoints of the latest migration planned
}

// NewController composes an instance from its elector and sequencer. A
// staged instance migrates between activation patterns in two waves (see
// MigrationSequencer) instead of commanding a new pattern at once.
func NewController(lease *LeaseElector, seq *CommandSequencer, staged bool) *Controller {
	c := &Controller{Lease: lease, Seq: seq}
	if staged {
		numPEs := len(seq.slots) / seq.k
		c.mig = NewMigrationSequencer(numPEs, seq.k)
		c.old, c.new = make([][]bool, numPEs), make([][]bool, numPEs)
		for pe := range c.old {
			c.old[pe], c.new[pe] = make([]bool, seq.k), make([]bool, seq.k)
		}
	}
	return c
}

// Evaluate applies the lease rule at time now and carries out its
// decision: a Claim converging to target's pattern under cfg, or a
// StepDown. It returns the ballot of a claim made by this call, else 0.
func (c *Controller) Evaluate(now int64, target Pattern, cfg int) uint64 {
	switch c.Lease.Evaluate(now) {
	case LeaseClaim:
		return c.Claim(target, cfg)
	case LeaseYield:
		c.StepDown()
	}
	return 0
}

// Claim takes the lease under a fresh ballot and resets the command table,
// so the new leader re-establishes every replica's activation state
// instead of trusting acks granted to a predecessor, and returns the
// ballot. A staged instance re-plans the convergence to target's pattern
// under cfg (target is read only then) as a migration from the empty
// pattern: a predecessor that crashed mid-migration may have left anything
// up to the union live, and activating first keeps every intermediate
// state a superset of the target.
func (c *Controller) Claim(target Pattern, cfg int) uint64 {
	epoch := c.Lease.Claim()
	c.Seq.BeginEpoch(epoch)
	if c.mig != nil {
		c.mig.Abort()
		for pe := range c.old {
			for k := range c.old[pe] {
				c.old[pe][k] = false
				c.new[pe][k] = target.IsActive(cfg, pe, k)
			}
		}
		c.mig.Begin(c.old, c.new)
	}
	return epoch
}

// StepDown drops the lease, the in-flight commands (acknowledged state is
// kept; the next claim resets the table) and any in-flight migration: the
// successor re-plans from its own view, and the union pattern left behind
// dominates both endpoints, so the IC floor survives the handover.
func (c *Controller) StepDown() {
	c.Lease.StepDown()
	c.Seq.DropPending()
	if c.mig != nil {
		c.mig.Abort()
	}
}

// Staged reports whether the instance migrates in waves.
func (c *Controller) Staged() bool { return c.mig != nil }

// Switch begins a staged migration from prev's pattern under fromCfg to
// next's under toCfg, superseding any migration in flight: the slots its
// wave still wants fold into the old pattern, so the handover never
// commands down a slot the superseded plan needs. Only a staged instance
// may switch.
func (c *Controller) Switch(prev Pattern, fromCfg int, next Pattern, toCfg int) {
	inflight := c.mig.InFlight()
	for pe := range c.old {
		for k := range c.old[pe] {
			c.old[pe][k] = prev.IsActive(fromCfg, pe, k) || (inflight && c.mig.Want(pe, k))
			c.new[pe][k] = next.IsActive(toCfg, pe, k)
		}
	}
	c.mig.Begin(c.old, c.new)
}

// Old returns the old pattern ([pe][replica]) of the latest migration a
// Switch or staged Claim planned; the buffer is reused by the next one.
func (c *Controller) Old() [][]bool { return c.old }

// New returns the target pattern of the latest migration; see Old.
func (c *Controller) New() [][]bool { return c.new }

// InFlight reports whether a migration is between its first flip and its
// last confirmation.
func (c *Controller) InFlight() bool { return c.mig != nil && c.mig.InFlight() }

// Wave returns the in-flight migration wave, WaveIdle when none is.
func (c *Controller) Wave() int {
	if c.mig == nil {
		return WaveIdle
	}
	return c.mig.Wave()
}

// want maps the strategy's wanted state of slot (pe, k) to the commanded
// one: the wave's wanted state while a migration is in flight. hold
// reports a deactivation the activation wave holds back — none leaves the
// leader until every slot of the wave is confirmed, not even for slots
// outside both patterns, whose state a fresh ballot cannot vouch for.
func (c *Controller) want(pe, k int, want bool) (w, hold bool) {
	if !c.InFlight() {
		return want, false
	}
	w = c.mig.Want(pe, k)
	return w, !w && c.mig.Wave() == WaveActivate
}

// Command reconciles slot (pe, k), which the strategy wants in state want,
// at time now: Seq.Step toward the wave-gated wanted state. The caller
// reports the transmission's outcome to Seq and then calls Confirm.
//
// A staged instance re-issues a command its new wanted state supersedes
// instead of dropping it: the superseded command may have been applied
// with only its ack lost, so the acknowledged state the waves advance on
// no longer vouches for the replica.
func (c *Controller) Command(pe, k int, want bool, now int64) (cmd Command, send, retry bool) {
	w, hold := c.want(pe, k, want)
	if hold {
		return Command{}, false, false
	}
	if c.mig != nil && c.Seq.Superseded(pe, k, w) {
		c.Seq.ResetSlot(pe, k)
	}
	return c.Seq.Step(pe, k, w, now)
}

// Confirm feeds slot (pe, k)'s acknowledged state to the in-flight wave: a
// slot converged to the wave's wanted state — by the ack just applied or
// an earlier one — is confirmed, and the wave's last confirmation advances
// it. Confirm reports whether this call completed the migration.
func (c *Controller) Confirm(pe, k int) bool {
	if !c.InFlight() {
		return false
	}
	act, known := c.Seq.AckedState(pe, k)
	if !known || act != c.mig.Want(pe, k) {
		return false
	}
	return c.mig.Applied(pe, k, act) && !c.mig.InFlight()
}
