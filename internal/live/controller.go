package live

import (
	"fmt"
	"sync/atomic"
	"time"

	"laar/internal/controlplane"
	"laar/internal/ftsearch"
)

// This file is the replicated control plane: N share-nothing HAController
// instances with lease-based leadership, an acknowledged idempotent
// activation-command protocol, and the replica-side fail-safe rule.
//
// The decision logic itself — the lease rule, ballot arithmetic, command
// sequencing/dedup, migration waves and rate measurement — lives in the
// runtime-agnostic internal/controlplane machines. This file is the live
// driver: each instance owns one controlplane.Controller and one
// RateMonitor, both touched only by the instance's own goroutine.
// Cross-goroutine inputs (peer heartbeats, ballot gossip, command NACKs)
// land in atomic mailboxes and are drained into the machines at the top of
// each tick; commands the machines issue are shipped over the Transport,
// and the resulting role/epoch is published back into atomics for
// concurrent observers (Leader, ControllerStats).
//
// Every alive instance heartbeats its peers over the Transport each
// monitor tick, and the lowest-id instance heard within Config.LeaseTTL
// holds the lease. Only the lease holder issues activation commands:
// (epoch, seq, active) triples, individually acknowledged by the replica
// proxy and retransmitted with capped exponential backoff between
// CommandRetryMin and CommandRetryMax.

// ControllerEndpoint returns the transport endpoint of HAController
// instance i. Instance 0 sits at ControllerHost — the endpoint that also
// carries the sources and sinks — so a single-controller deployment keeps
// exactly the topology earlier versions modelled; standby instances get
// their own endpoints, letting fault schedules cut controller↔controller
// links independently of the data plane.
func ControllerEndpoint(i int) int { return -(i + 1) }

// LeaseGrant records one leadership claim in the control plane, including
// the initial grant to instance 0 at construction time.
type LeaseGrant struct {
	// Epoch is the ballot the lease was claimed under.
	Epoch uint64
	// Controller is the claiming instance.
	Controller int
	// Time is when the claim was made.
	Time time.Time
}

// ControllerStat is one HAController instance's point-in-time snapshot.
type ControllerStat struct {
	// ID is the instance index; its endpoint is ControllerEndpoint(ID).
	ID int
	// Alive reports the instance's failure-injection state.
	Alive bool
	// Leader reports the instance currently believes it holds the lease.
	// During a controller↔controller partition two instances may believe so
	// at once; replicas arbitrate their commands by ballot epoch.
	Leader bool
	// Epoch is the ballot of the instance's latest claim.
	Epoch uint64
	// CommandsSent counts activation-command send attempts, CommandsAcked
	// the ones acknowledged, and CommandsRetried the retransmissions among
	// the sends.
	CommandsSent, CommandsAcked, CommandsRetried int64
	// StaleRejected counts commands a replica refused because it already
	// follows a higher ballot.
	StaleRejected int64
	// PendingCommands counts replica slots with an unacknowledged command
	// outstanding; zero once the leader's view has converged.
	PendingCommands int64
}

// controller is one replicated HAController instance: the controlplane
// machines plus the live goroutine/transport plumbing around them.
type controller struct {
	id       int
	endpoint int

	alive atomic.Bool

	// Published mirrors of the elector's role and ballot, refreshed after
	// every machine transition so concurrent observers (peer gossip,
	// Leader, ControllerStats) see the current state without touching the
	// goroutine-local machines.
	leader atomic.Bool
	epoch  atomic.Uint64

	// maxSeen is both the gossip mailbox and the published watermark for
	// the highest ballot observed anywhere: peers and command NACKs raise
	// it from their goroutines, the owner drains it into the elector each
	// tick and publishes claims back into it.
	maxSeen atomic.Uint64

	// lastHeard[j] is the heartbeat mailbox: when this instance last heard
	// peer j, aged by the transport delay on the controller↔controller
	// link. Drained into the elector at the top of each tick.
	lastHeard []atomic.Int64

	// beats[pe][k] is the replica heartbeat as THIS instance observes it:
	// each instance has its own view of the data plane, because a replica
	// partitioned from one controller endpoint may be fresh at another.
	beats [][]atomic.Int64

	// The controlplane machines and measurement state below are touched
	// only by the instance's own goroutine. ctl is staged exactly when
	// Config.Resolve is set; solver is the instance's own incremental
	// solver (nil unless Resolve is set without StageOnly).
	ctl      *controlplane.Controller
	mon      *controlplane.RateMonitor
	measured []float64 // mon's reusable buffer; refreshed in place
	lastSwap time.Time
	solver   *ftsearch.Solver

	commandsSent    atomic.Int64
	commandsAcked   atomic.Int64
	commandsRetried atomic.Int64
	staleRejected   atomic.Int64
	pendingN        atomic.Int64

	resolves        atomic.Int64
	resolveFailures atomic.Int64
	warmResolves    atomic.Int64
	resolveNodes    atomic.Int64
	migCycles       atomic.Int64
}

func newController(id, numPEs, k, peers int, rates [][]float64, maxCfg, initialCfg int, cfg Config, now time.Time) *controller {
	c := &controller{
		id:        id,
		endpoint:  ControllerEndpoint(id),
		lastHeard: make([]atomic.Int64, peers),
		beats:     make([][]atomic.Int64, numPEs),
		ctl: controlplane.NewController(
			controlplane.NewLeaseElector(id, peers, int64(cfg.LeaseTTL), now.UnixNano()),
			controlplane.NewCommandSequencer(numPEs, k, controlplane.RetryPolicy{
				Min: int64(cfg.CommandRetryMin),
				Max: int64(cfg.CommandRetryMax),
			}),
			cfg.Resolve != nil),
		mon:      controlplane.NewRateMonitor(rates, maxCfg),
		lastSwap: now,
	}
	c.mon.SetApplied(initialCfg)
	c.measured = c.mon.Measured()
	for pe := range c.beats {
		c.beats[pe] = make([]atomic.Int64, k)
	}
	c.alive.Store(true)
	return c
}

// raise lifts an atomic ballot watermark to at least v.
func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// demote publishes a step-down: the instance no longer leads and its
// pending commands are dropped.
func (c *controller) demote() {
	c.leader.Store(false)
	c.pendingN.Store(0)
}

// claimed publishes instance c's claim of ballot epoch and records the
// grant. The applied configuration is inherited, so leadership changes
// alone never flap the configuration.
func (rt *Runtime) claimed(c *controller, epoch uint64, applied int, now time.Time) {
	c.epoch.Store(epoch)
	raise(&c.maxSeen, epoch)
	c.pendingN.Store(0)
	c.mon.SetApplied(applied)
	c.leader.Store(true)
	rt.leaseMu.Lock()
	rt.leases = append(rt.leases, LeaseGrant{Epoch: epoch, Controller: c.id, Time: now})
	rt.leaseMu.Unlock()
}

// runController is one instance's goroutine: heartbeat peers, evaluate the
// lease, and — while leading — run the monitor/command/election scan.
func (rt *Runtime) runController(c *controller) {
	defer rt.wg.Done()
	ticker := rt.cfg.Clock.NewTicker(rt.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case now := <-ticker.C:
			rt.ctrlTick(c, now)
		}
	}
}

// ctrlTick is one monitor period of instance c.
func (rt *Runtime) ctrlTick(c *controller, now time.Time) {
	if !c.alive.Load() {
		if c.leader.Load() {
			c.ctl.StepDown() // a crashed leader's goroutine goes inert
			c.demote()
		}
		return
	}
	nowNs := now.UnixNano()
	// Heartbeat the peers, gossiping the highest ballot seen so a healed or
	// recovered instance learns what it missed.
	for _, p := range rt.ctrls {
		if p == c || !p.alive.Load() {
			continue
		}
		if !rt.cfg.Transport.Reachable(c.endpoint, p.endpoint) {
			continue
		}
		at := nowNs
		if d := rt.cfg.Transport.Delay(c.endpoint, p.endpoint); d > 0 {
			at -= int64(d)
		}
		p.lastHeard[c.id].Store(at)
		raise(&p.maxSeen, c.maxSeen.Load())
	}
	// Drain the mailboxes into the elector and evaluate the lease rule.
	for j := range c.lastHeard {
		if j != c.id {
			c.ctl.Lease.HearPeer(j, c.lastHeard[j].Load())
		}
	}
	c.ctl.Lease.Observe(c.maxSeen.Load())
	applied := int(rt.applied.Load())
	if epoch := c.ctl.Evaluate(nowNs, rt.Strategy(), applied); epoch != 0 {
		rt.claimed(c, epoch, applied, now)
	} else if c.leader.Load() && !c.ctl.Lease.Leading() {
		c.demote()
	}
	c.measure(rt, now)
	if c.ctl.Lease.Leading() {
		rt.ctrlScan(c, now)
	}
}

// measure refreshes the instance's Rate Monitor estimate from its source
// window. Every alive instance measures every tick — leader or standby — so
// a freshly promoted leader decides from current rates, not stale ones. A
// cut source feed (ControllerHost↔endpoint) freezes the estimate; the
// window keeps accumulating, and the first post-heal measurement averages
// the rate over the whole gap.
func (c *controller) measure(rt *Runtime, now time.Time) {
	if !rt.cfg.Transport.Reachable(ControllerHost, c.endpoint) {
		return
	}
	elapsed := now.Sub(c.lastSwap).Seconds()
	if elapsed <= 0 {
		return
	}
	for i := range rt.srcWindow[c.id] {
		c.mon.Accumulate(i, float64(rt.srcWindow[c.id][i].Swap(0)))
	}
	c.measured = c.mon.Measure(elapsed)
	c.lastSwap = now
}

// ctrlScan is the leader's HAController step: select the dominating
// configuration, drive every replica's activation state to it through the
// ack'd command protocol, refresh elections, and supervise. Under staged
// migration (Config.Resolve) a configuration switch first re-solves the
// strategy and begins a two-wave plan; the Controller then commands the
// wave's wanted states instead of the strategy's, and every confirmed slot
// advances the waves.
func (rt *Runtime) ctrlScan(c *controller, now time.Time) {
	strat := rt.Strategy()
	cfg := c.mon.Select(c.measured)
	if cfg != c.mon.Applied() {
		if c.ctl.Staged() {
			strat = rt.stageSwitch(c, c.mon.Applied(), cfg, now)
		}
		c.mon.SetApplied(cfg)
		rt.setApplied(cfg)
	}
	nowNs := now.UnixNano()
	applied := c.mon.Applied()
	for pe := range rt.replicas {
		for k, rep := range rt.replicas[pe] {
			cmd, send, retry := c.ctl.Command(pe, k, strat.IsActive(applied, pe, k), nowNs)
			if send {
				c.commandsSent.Add(1)
				if retry {
					c.commandsRetried.Add(1)
				}
				if rt.deliverCommand(c, rep, cmd) {
					c.commandsAcked.Add(1)
					c.ctl.Seq.Acked(pe, k)
				} else {
					c.ctl.Seq.Failed(pe, k, nowNs)
				}
			}
			if c.ctl.Confirm(pe, k) {
				c.migCycles.Add(1)
			}
		}
	}
	c.pendingN.Store(int64(c.ctl.Seq.Pending()))
	rt.electAllAs(c, now)
	if rt.cfg.Supervise {
		rt.supervise(now)
	}
	rt.checkpointTick(now)
}

// setApplied publishes a configuration decision, counting real changes.
func (rt *Runtime) setApplied(cfg int) {
	if rt.applied.Swap(int32(cfg)) != int32(cfg) {
		rt.switches.Add(1)
	}
}

// deliverCommand attempts one command round trip: delivery leader→replica,
// application at the proxy, ack replica→leader. Any failed leg leaves the
// command pending for retransmission; the proxy's (epoch, seq) dedup makes
// redelivery after a lost ack harmless. A NACK (the replica follows a
// higher ballot) carries that ballot back so the leader re-claims above it.
func (rt *Runtime) deliverCommand(c *controller, rep *replica, cmd controlplane.Command) bool {
	tr := rt.cfg.Transport
	if !tr.Reachable(c.endpoint, rep.host) || tr.DropData(c.endpoint, rep.host) {
		return false
	}
	applied, repEpoch := rt.applyCommand(rep, cmd.Epoch, cmd.Seq, cmd.Active)
	if !applied {
		c.staleRejected.Add(1)
		if tr.Reachable(rep.host, c.endpoint) {
			raise(&c.maxSeen, repEpoch)
		}
		return false
	}
	if !tr.Reachable(rep.host, c.endpoint) || tr.DropData(rep.host, c.endpoint) {
		return false // command applied but ack lost: retry, proxy dedupes
	}
	return true
}

// applyCommand is the replica proxy's command handler: the shared
// ProxyState machine rules on the command's (epoch, seq) — stale ballots
// are NACKed with the adopted ballot, duplicates re-acknowledged without
// re-applying, and accepted commands applied under the advanced state.
func (rt *Runtime) applyCommand(rep *replica, epoch, seq uint64, active bool) (bool, uint64) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	st := controlplane.ProxyState{Epoch: rep.ctrlEpoch.Load(), Seq: rep.cmdSeq.Load()}
	switch st.Admit(epoch, seq) {
	case controlplane.CmdStale:
		return false, st.Epoch
	case controlplane.CmdDuplicate:
		return true, epoch
	}
	rep.ctrlEpoch.Store(st.Epoch)
	rep.cmdSeq.Store(st.Seq)
	if active && !rep.active.Load() && rep.alive.Load() {
		// Re-synchronise state from the primary before the replica starts
		// processing again (Section 4.6).
		rt.markJoining(rep.pe, rep)
	}
	rep.active.Store(active)
	return true, epoch
}

// applyView is the replica proxy's election handler: adopt the leader's
// primary view and refresh the lease timestamp, unless the view comes from
// a stale ballot — a deposed leader cannot move the lease.
func (rt *Runtime) applyView(rep *replica, epoch uint64, view int32, now time.Time) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	st := controlplane.ProxyState{Epoch: rep.ctrlEpoch.Load(), Seq: rep.cmdSeq.Load()}
	if !st.Adopt(epoch) {
		return
	}
	rep.ctrlEpoch.Store(st.Epoch)
	rep.cmdSeq.Store(st.Seq)
	rep.view.Store(view)
	rep.lastCtrl.Store(now.UnixNano())
}

// electAllAs recomputes every PE's primary from leader c's own heartbeat
// view — the lowest-indexed replica that is alive, active and fresh within
// HeartbeatTimeout — and publishes (view, ballot, lease) to every replica
// the leader's endpoint can currently reach. Replicas behind a cut keep
// their stale view: that is the split-brain window the replica-side fence
// bounds.
func (rt *Runtime) electAllAs(c *controller, now time.Time) {
	deadline := now.Add(-rt.cfg.HeartbeatTimeout).UnixNano()
	epoch := c.epoch.Load()
	for pe := range rt.replicas {
		chosen := int32(-1)
		for k, rep := range rt.replicas[pe] {
			if rep.alive.Load() && rep.active.Load() && c.beats[pe][k].Load() >= deadline {
				chosen = int32(k)
				break
			}
		}
		rt.primaries[pe].Store(chosen)
		for _, rep := range rt.replicas[pe] {
			if rt.cfg.Transport.Reachable(c.endpoint, rep.host) {
				rt.applyView(rep, epoch, chosen, now)
			}
		}
	}
}

// failSafeActive reports whether a replica is processing under the
// fail-safe rule: the rule is armed and no controller has refreshed the
// replica's lease for at least FailSafeHorizon (the shared Silent
// predicate), so the replica reverts to full activation to preserve
// replication while the control plane is gone.
func (rt *Runtime) failSafeActive(rep *replica, nowNs int64) bool {
	return rt.failSafeOn && controlplane.Silent(rep.lastCtrl.Load(), nowNs, int64(rt.cfg.FailSafeHorizon))
}

// Leader returns the id and ballot of the acting lease holder — the
// lowest-id alive instance currently believing it leads — or (-1, 0) when
// the control plane is leaderless.
func (rt *Runtime) Leader() (int, uint64) {
	for _, c := range rt.ctrls {
		if c.alive.Load() && c.leader.Load() {
			return c.id, c.epoch.Load()
		}
	}
	return -1, 0
}

// BelievedLeaders returns every alive instance that currently believes it
// holds the lease. More than one entry means a controller↔controller
// partition is (or just was) in effect; replicas arbitrate by ballot.
func (rt *Runtime) BelievedLeaders() []int {
	var out []int
	for _, c := range rt.ctrls {
		if c.alive.Load() && c.leader.Load() {
			out = append(out, c.id)
		}
	}
	return out
}

// LeaseHistory returns every leadership claim so far, in claim order,
// including the initial grant to instance 0. Epochs are unique across the
// history — the at-most-one-lease-holder-per-epoch invariant.
func (rt *Runtime) LeaseHistory() []LeaseGrant {
	rt.leaseMu.Lock()
	defer rt.leaseMu.Unlock()
	out := make([]LeaseGrant, len(rt.leases))
	copy(out, rt.leases)
	return out
}

// ControllerStats returns a snapshot of every HAController instance.
func (rt *Runtime) ControllerStats() []ControllerStat {
	out := make([]ControllerStat, len(rt.ctrls))
	for i, c := range rt.ctrls {
		out[i] = ControllerStat{
			ID:              c.id,
			Alive:           c.alive.Load(),
			Leader:          c.leader.Load(),
			Epoch:           c.epoch.Load(),
			CommandsSent:    c.commandsSent.Load(),
			CommandsAcked:   c.commandsAcked.Load(),
			CommandsRetried: c.commandsRetried.Load(),
			StaleRejected:   c.staleRejected.Load(),
			PendingCommands: c.pendingN.Load(),
		}
	}
	return out
}

// KillController crashes one HAController instance: its goroutine goes
// inert, it stops heartbeating peers and observing replicas, and — if it
// led — the lease lapses, to be claimed by the lowest surviving instance
// after LeaseTTL. Killing a dead instance is an error.
func (rt *Runtime) KillController(i int) error {
	if i < 0 || i >= len(rt.ctrls) {
		return fmt.Errorf("live: controller %d out of range [0, %d)", i, len(rt.ctrls))
	}
	if !rt.ctrls[i].alive.CompareAndSwap(true, false) {
		return fmt.Errorf("live: controller %d is already dead", i)
	}
	return nil
}

// RecoverController brings a crashed instance back. It rejoins the lease
// protocol with the ballots it knew at crash time and catches up through
// peer gossip and command NACKs; a recovered instance with the lowest id
// reclaims leadership. Recovering an alive instance is an error.
func (rt *Runtime) RecoverController(i int) error {
	if i < 0 || i >= len(rt.ctrls) {
		return fmt.Errorf("live: controller %d out of range [0, %d)", i, len(rt.ctrls))
	}
	if !rt.ctrls[i].alive.CompareAndSwap(false, true) {
		return fmt.Errorf("live: controller %d is already alive", i)
	}
	return nil
}
