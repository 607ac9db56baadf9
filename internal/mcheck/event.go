package mcheck

import (
	"fmt"

	"laar/internal/controlplane"
)

// EventKind enumerates the explored transitions.
type EventKind int

const (
	// EvTick advances the clock one step: heartbeats flow over intact
	// links, every up instance evaluates its lease, and the fail-safe
	// tracker observes contact or silence.
	EvTick EventKind = iota
	// EvCrash crashes instance A (a crashing leader steps down and drops
	// its in-flight commands, as the live runtime does).
	EvCrash
	// EvRecover restarts instance A with its machine state intact.
	EvRecover
	// EvCut partitions the link between instances A and B.
	EvCut
	// EvHeal heals the link between A and B.
	EvHeal
	// EvDeliver has leader A transmit the due command for slot B; the
	// proxy admits it and the acknowledgement (or NACK) returns. Every
	// command event ends with the leader confirming slot B to its
	// migration wave; a plain deliver with nothing due just does that
	// bookkeeping.
	EvDeliver
	// EvDropCmd has leader A transmit the due command for slot B, lost
	// before the proxy.
	EvDropCmd
	// EvDropAck has leader A transmit the due command for slot B; the
	// proxy admits it but the acknowledgement is lost.
	EvDropAck
	// EvFlip switches the wanted activation target to configuration A. In
	// migration mode every leader begins a staged migration to it.
	EvFlip
	// EvDupCmd re-delivers a stale duplicate of slot B's last applied
	// command to its proxy — a retransmission that raced its own
	// acknowledgement. The proxy must judge it CmdDuplicate (re-acknowledge
	// without re-applying), and the re-ack, carrying the applied sequence,
	// returns to the up leading instances — which must ignore it unless it
	// names their in-flight command exactly. Appended after EvFlip so the
	// kind integers of serialized repro artifacts stay stable.
	EvDupCmd
)

// String names the kind for schedules and artifacts.
func (k EventKind) String() string {
	switch k {
	case EvTick:
		return "tick"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvCut:
		return "cut"
	case EvHeal:
		return "heal"
	case EvDeliver:
		return "deliver"
	case EvDropCmd:
		return "drop-cmd"
	case EvDropAck:
		return "drop-ack"
	case EvFlip:
		return "flip"
	case EvDupCmd:
		return "dup-cmd"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one transition of the explored world. A and B address the
// transition's operands: the instance for crash/recover, the instance pair
// for cut/heal, (leader instance, replica slot) for the command events, and
// the target configuration for flip.
type Event struct {
	Kind EventKind `json:"kind"`
	A    int       `json:"a,omitempty"`
	B    int       `json:"b,omitempty"`
}

// String renders the event for counterexample reports.
func (e Event) String() string {
	switch e.Kind {
	case EvTick:
		return "tick"
	case EvCrash, EvRecover:
		return fmt.Sprintf("%s(%d)", e.Kind, e.A)
	case EvCut, EvHeal:
		return fmt.Sprintf("%s(%d,%d)", e.Kind, e.A, e.B)
	case EvDeliver, EvDropCmd, EvDropAck:
		return fmt.Sprintf("%s(inst=%d,slot=%d)", e.Kind, e.A, e.B)
	case EvFlip:
		return fmt.Sprintf("flip(%d)", e.A)
	case EvDupCmd:
		return fmt.Sprintf("dup-cmd(slot=%d)", e.B)
	}
	return fmt.Sprintf("%v(%d,%d)", e.Kind, e.A, e.B)
}

// enabled reports whether the event can fire in the current world. The
// explorer enumerates only enabled events; Replay uses it to skip events a
// shrunk schedule prefix has made moot.
func (w *world) enabled(e Event) bool {
	inRange := func(i int) bool { return i >= 0 && i < w.opt.Instances }
	switch e.Kind {
	case EvTick:
		return true
	case EvCrash:
		return inRange(e.A) && w.insts[e.A].up
	case EvRecover:
		return inRange(e.A) && !w.insts[e.A].up
	case EvCut:
		return inRange(e.A) && inRange(e.B) && e.A < e.B && !w.cutAt(e.A, e.B)
	case EvHeal:
		return inRange(e.A) && inRange(e.B) && e.A < e.B && w.cutAt(e.A, e.B)
	case EvDeliver, EvDropCmd, EvDropAck:
		if !inRange(e.A) || e.B < 0 || e.B >= len(w.prox) {
			return false
		}
		in := &w.insts[e.A]
		if !in.up || !in.ctl.Lease.Leading() {
			return false
		}
		transmit, bookkeep := w.slotEvents(in, e.B)
		return transmit || (e.Kind == EvDeliver && bookkeep)
	case EvFlip:
		return (e.A == 0 || e.A == 1) && e.A != w.target
	case EvDupCmd:
		// A duplicate needs an applied command to re-deliver.
		return e.B >= 0 && e.B < len(w.prox) && w.prox[e.B].Seq > 0
	}
	return false
}

// apply executes an enabled event, mutating the world.
func (w *world) apply(e Event) {
	switch e.Kind {
	case EvTick:
		w.tick()
	case EvCrash:
		in := &w.insts[e.A]
		in.up = false
		if in.ctl.Lease.Leading() {
			if w.opt.Fault == FaultCrashKeepsPending {
				in.ctl.Lease.StepDown() // the injected bug: the commands stay in flight
			} else {
				in.ctl.StepDown()
			}
		}
	case EvRecover:
		w.insts[e.A].up = true
	case EvCut:
		w.setCut(e.A, e.B, true)
	case EvHeal:
		w.setCut(e.A, e.B, false)
	case EvDeliver:
		w.transmit(e.A, e.B, true, true)
	case EvDropCmd:
		w.transmit(e.A, e.B, false, false)
	case EvDropAck:
		w.transmit(e.A, e.B, true, false)
	case EvFlip:
		strat := strategy{w.opt.Migration}
		for i := range w.insts {
			if in := &w.insts[i]; in.ctl.Staged() && in.ctl.Lease.Leading() {
				in.ctl.Switch(strat, w.target, strat, e.A)
			}
		}
		w.target = e.A
	case EvDupCmd:
		w.duplicate(e.B)
	}
}

// duplicate re-delivers the command slot's proxy last applied — same
// (epoch, seq) — modelling a retransmitted copy that raced its own
// acknowledgement. The correct proxy re-acknowledges without applying,
// and the re-ack reaches every up leading instance, which applies it
// only when it names its in-flight command exactly (AckedMatch) — a
// stale re-ack must never complete a newer command.
func (w *world) duplicate(slot int) {
	p := &w.prox[slot]
	epoch, seq := p.Epoch, p.Seq
	if p.Admit(epoch, seq) == controlplane.CmdDuplicate && w.opt.Fault == FaultDupReapplies {
		// The injected bug: the proxy treats the duplicate as new and
		// rewinds its dedup cursor to re-apply it — breaking the
		// at-most-once guarantee (proxy-monotone must fire).
		p.Seq--
	}
	pe, k := slot/w.opt.K, slot%w.opt.K
	for i := range w.insts {
		in := &w.insts[i]
		if in.up && in.ctl.Lease.Leading() {
			in.ctl.Seq.AckedMatch(pe, k, epoch, seq)
		}
	}
}

// tick advances the clock: heartbeats and watermark gossip over intact
// links between up instances, lease evaluation in id order, and the
// fail-safe contact/silence update — the same per-step order as the chaos
// model and the live controller driver.
func (w *world) tick() {
	w.now++
	for i := range w.insts {
		src := &w.insts[i]
		if !src.up {
			continue
		}
		for j := range w.insts {
			dst := &w.insts[j]
			if i == j || !dst.up || w.cutAt(i, j) {
				continue
			}
			dst.ctl.Lease.HearPeer(i, w.now)
			dst.ctl.Lease.Observe(src.ctl.Lease.MaxSeen())
		}
	}
	strat := strategy{w.opt.Migration}
	leader := false
	for i := range w.insts {
		in := &w.insts[i]
		if !in.up {
			continue
		}
		if w.opt.Fault == FaultClaimAdoptsSeen && in.ctl.Lease.Evaluate(w.now) == controlplane.LeaseClaim {
			// The injected bug: the claim adopts the watermark verbatim — a
			// ballot that may be zero or carry another instance's id — and
			// issues under it.
			seen := in.ctl.Lease.MaxSeen()
			in.ctl.Claim(strat, w.target)
			var s controlplane.ControllerSnapshot
			in.ctl.SnapshotInto(&s)
			s.Lease.Epoch, s.Lease.MaxSeen, s.Seq.Epoch = seen, seen, seen
			in.ctl.Restore(s)
		} else {
			in.ctl.Evaluate(w.now, strat, w.target)
		}
		leader = leader || in.ctl.Lease.Leading()
	}
	if leader {
		w.fs.Contact(w.now)
		w.fs.Clear()
	} else {
		w.fs.Engage(w.now)
	}
}

// transmit runs one command step of slot at leader inst: reach=false
// loses the command before the proxy, ack=false loses the acknowledgement
// (or NACK) on the way back. The step ends by confirming the slot to the
// leader's migration wave.
func (w *world) transmit(inst, slot int, reach, ack bool) {
	in := &w.insts[inst]
	pe, k := slot/w.opt.K, slot%w.opt.K
	bare := strategy{w.opt.Migration}.IsActive(w.target, pe, k)
	var cmd controlplane.Command
	var send bool
	if w.opt.Fault == FaultDeactivateFirst {
		cmd, send, _ = in.ctl.Seq.Step(pe, k, bare, w.now) // the injected bug: no wave gate
	} else {
		cmd, send, _ = in.ctl.Command(pe, k, bare, w.now)
	}
	if send {
		w.admit(in, slot, cmd, reach, ack)
	}
	in.ctl.Confirm(pe, k)
}

// admit carries one transmitted command to slot's proxy and its
// acknowledgement (or NACK) back to the sending instance.
func (w *world) admit(in *winst, slot int, cmd controlplane.Command, reach, ack bool) {
	pe, k := slot/w.opt.K, slot%w.opt.K
	if !reach {
		in.ctl.Seq.Failed(pe, k, w.now)
		return
	}
	p := &w.prox[slot]
	switch p.Admit(cmd.Epoch, cmd.Seq) {
	case controlplane.CmdApplied:
		w.active[slot] = cmd.Active
		fallthrough
	case controlplane.CmdDuplicate:
		if ack {
			in.ctl.Seq.Acked(pe, k)
		} else {
			in.ctl.Seq.Failed(pe, k, w.now)
		}
	case controlplane.CmdStale:
		if ack {
			// The NACK carries the proxy's adopted ballot; the deposed
			// leader re-claims above it on its next tick.
			in.ctl.Lease.Observe(p.Epoch)
		}
		in.ctl.Seq.Failed(pe, k, w.now)
	}
}

// appendEnabled appends every enabled event to buf and returns it. The
// enumeration order is deterministic, so explorations are reproducible.
func (w *world) appendEnabled(buf []Event) []Event {
	buf = append(buf, Event{Kind: EvTick})
	for i := range w.insts {
		if w.insts[i].up {
			buf = append(buf, Event{Kind: EvCrash, A: i})
		} else {
			buf = append(buf, Event{Kind: EvRecover, A: i})
		}
	}
	for i := 0; i < w.opt.Instances; i++ {
		for j := i + 1; j < w.opt.Instances; j++ {
			if w.cutAt(i, j) {
				buf = append(buf, Event{Kind: EvHeal, A: i, B: j})
			} else {
				buf = append(buf, Event{Kind: EvCut, A: i, B: j})
			}
		}
	}
	for c := 0; c <= 1; c++ {
		if c != w.target {
			buf = append(buf, Event{Kind: EvFlip, A: c})
		}
	}
	for i := range w.insts {
		in := &w.insts[i]
		if !in.up || !in.ctl.Lease.Leading() {
			continue
		}
		for slot := range w.prox {
			transmit, bookkeep := w.slotEvents(in, slot)
			if transmit {
				buf = append(buf,
					Event{Kind: EvDeliver, A: i, B: slot},
					Event{Kind: EvDropCmd, A: i, B: slot},
					Event{Kind: EvDropAck, A: i, B: slot})
			} else if bookkeep {
				buf = append(buf, Event{Kind: EvDeliver, A: i, B: slot})
			}
		}
	}
	for slot := range w.prox {
		if w.prox[slot].Seq > 0 {
			buf = append(buf, Event{Kind: EvDupCmd, B: slot})
		}
	}
	return buf
}
