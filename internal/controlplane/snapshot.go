package controlplane

// This file holds the model-checking hooks of the control-plane machines:
// snapshot/restore (so an exhaustive explorer can branch over alternative
// futures of one state) and canonical fingerprinting (so states reached by
// different event orders collapse to one visited-set entry).
//
// Fingerprints are canonical in time: absolute timestamps never enter the
// hash. An elector hashes per-peer heartbeat *ages* clamped at TTL+1 (every
// staleness beyond the TTL is behaviourally identical), a sequencer hashes
// per-slot retransmission *waits* clamped at the backoff ceiling, and the
// fail-safe hashes its silence age clamped at the horizon. Two states with
// equal fingerprints are bisimilar: every machine decision (Evaluate, Step,
// Engage) reads time only through these clamped differences.

// Fingerprint is a streaming FNV-1a 64-bit hash over a machine-state
// encoding. The zero value is not ready; use NewFingerprint.
type Fingerprint struct {
	h uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewFingerprint returns a fingerprint at the FNV-1a offset basis.
func NewFingerprint() *Fingerprint { return &Fingerprint{h: fnvOffset} }

// Reset returns the fingerprint to its initial state for reuse.
func (f *Fingerprint) Reset() { f.h = fnvOffset }

// U64 mixes one 64-bit value into the hash, byte by byte.
func (f *Fingerprint) U64(v uint64) {
	h := f.h
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	f.h = h
}

// I64 mixes one signed value.
func (f *Fingerprint) I64(v int64) { f.U64(uint64(v)) }

// Bool mixes one boolean.
func (f *Fingerprint) Bool(b bool) {
	if b {
		f.U64(1)
	} else {
		f.U64(0)
	}
}

// Sum returns the accumulated hash.
func (f *Fingerprint) Sum() uint64 { return f.h }

// clampAge canonicalises the age now−then to [0, horizon+1]: all ages past
// the horizon are behaviourally identical, and a future timestamp (age < 0)
// cannot occur under a monotone clock but clamps to 0 defensively.
func clampAge(then, now, horizon int64) int64 {
	age := now - then
	if age < 0 {
		age = 0
	}
	if age > horizon+1 {
		age = horizon + 1
	}
	return age
}

// LeaseSnapshot is the complete externalised state of a LeaseElector.
type LeaseSnapshot struct {
	ID        int
	TTL       int64
	LastHeard []int64
	Epoch     uint64
	MaxSeen   uint64
	Leading   bool
}

// SnapshotInto writes the elector's state into s, reusing s's LastHeard
// buffer when it has capacity.
func (e *LeaseElector) SnapshotInto(s *LeaseSnapshot) {
	s.ID, s.TTL = e.id, e.ttl
	s.Epoch, s.MaxSeen, s.Leading = e.epoch, e.maxSeen, e.leading
	s.LastHeard = append(s.LastHeard[:0], e.lastHeard...)
}

// Snapshot returns a freshly allocated copy of the elector's state.
func (e *LeaseElector) Snapshot() LeaseSnapshot {
	var s LeaseSnapshot
	e.SnapshotInto(&s)
	return s
}

// Restore overwrites the elector's state from a snapshot. The snapshot's
// slice is copied, not aliased, so it stays valid for further restores.
func (e *LeaseElector) Restore(s LeaseSnapshot) {
	e.id, e.ttl = s.ID, s.TTL
	e.epoch, e.maxSeen, e.leading = s.Epoch, s.MaxSeen, s.Leading
	e.lastHeard = append(e.lastHeard[:0], s.LastHeard...)
}

// Hash mixes the elector's canonical state at time now: role, ballots, and
// per-peer heartbeat ages clamped at TTL+1.
func (e *LeaseElector) Hash(f *Fingerprint, now int64) {
	f.Bool(e.leading)
	f.U64(e.epoch)
	f.U64(e.maxSeen)
	for _, at := range e.lastHeard {
		f.I64(clampAge(at, now, e.ttl))
	}
}

// SlotSnapshot is one sequencer slot's externalised state.
type SlotSnapshot struct {
	Cmd     Command
	NextAt  int64
	Backoff int64
	Pending bool
	Acked   int8
}

// SequencerSnapshot is the complete externalised state of a
// CommandSequencer (the retry policy and shape are construction constants
// and not part of it).
type SequencerSnapshot struct {
	Epoch    uint64
	Seq      uint64
	PendingN int
	Slots    []SlotSnapshot
}

// SnapshotInto writes the sequencer's state into s, reusing s's slot
// buffer when it has capacity.
func (s *CommandSequencer) SnapshotInto(sn *SequencerSnapshot) {
	sn.Epoch, sn.Seq, sn.PendingN = s.epoch, s.seq, s.pendingN
	sn.Slots = sn.Slots[:0]
	for i := range s.slots {
		sl := &s.slots[i]
		sn.Slots = append(sn.Slots, SlotSnapshot{
			Cmd: sl.cmd, NextAt: sl.nextAt, Backoff: sl.backoff,
			Pending: sl.pending, Acked: sl.acked,
		})
	}
}

// Snapshot returns a freshly allocated copy of the sequencer's state.
func (s *CommandSequencer) Snapshot() SequencerSnapshot {
	var sn SequencerSnapshot
	s.SnapshotInto(&sn)
	return sn
}

// Restore overwrites the sequencer's state from a snapshot of the same
// shape (numPEs × k unchanged since construction).
func (s *CommandSequencer) Restore(sn SequencerSnapshot) {
	s.epoch, s.seq, s.pendingN = sn.Epoch, sn.Seq, sn.PendingN
	for i := range s.slots {
		ss := sn.Slots[i]
		s.slots[i] = slot{
			cmd: ss.Cmd, nextAt: ss.NextAt, backoff: ss.Backoff,
			pending: ss.Pending, acked: ss.Acked,
		}
	}
}

// Hash mixes the sequencer's canonical state at time now: the issuing
// ballot, the sequence watermark, and per slot the in-flight command, ack
// state, backoff, and the retransmission wait clamped at the backoff
// ceiling. A fresh command (NextAt 0) and a due retransmission hash the
// same wait 0 — Step treats them identically.
func (s *CommandSequencer) Hash(f *Fingerprint, now int64) {
	f.U64(s.epoch)
	f.U64(s.seq)
	for i := range s.slots {
		sl := &s.slots[i]
		f.Bool(sl.pending)
		f.I64(int64(sl.acked))
		f.U64(sl.cmd.Epoch)
		f.U64(sl.cmd.Seq)
		f.Bool(sl.cmd.Active)
		f.I64(sl.backoff)
		wait := sl.nextAt - now
		if wait < 0 || sl.nextAt == 0 {
			wait = 0
		}
		if wait > s.policy.Max {
			wait = s.policy.Max
		}
		f.I64(wait)
	}
}

// WouldSend reports, without side effects, whether Step(pe, k, want, now)
// would return send=true — the enabledness predicate an exhaustive
// explorer uses to enumerate command-transmission events.
func (s *CommandSequencer) WouldSend(pe, k int, want bool, now int64) bool {
	sl := &s.slots[pe*s.k+k]
	wantAck := ackInactive
	if want {
		wantAck = ackActive
	}
	if sl.acked == wantAck {
		return false
	}
	if !sl.pending || sl.cmd.Active != want {
		return true // a fresh command transmits immediately
	}
	return now >= sl.nextAt
}

// Superseded reports whether the slot holds a pending command the current
// wanted state has made redundant (Step would clear it without sending).
func (s *CommandSequencer) Superseded(pe, k int, want bool) bool {
	sl := &s.slots[pe*s.k+k]
	wantAck := ackInactive
	if want {
		wantAck = ackActive
	}
	return sl.pending && sl.acked == wantAck
}

// MigrationSnapshot is the complete externalised state of a
// MigrationSequencer (the shape is a construction constant).
type MigrationSnapshot struct {
	Old, Est, Target, Need []bool
	NeedN, Wave            int
}

// SnapshotInto writes the sequencer's state into s, reusing its buffers.
func (m *MigrationSequencer) SnapshotInto(s *MigrationSnapshot) {
	s.Old = append(s.Old[:0], m.old...)
	s.Est = append(s.Est[:0], m.est...)
	s.Target = append(s.Target[:0], m.target...)
	s.Need = append(s.Need[:0], m.need...)
	s.NeedN, s.Wave = m.needN, m.wave
}

// Restore overwrites the sequencer's state from a snapshot of the same
// shape. The snapshot's slices are copied, not aliased.
func (m *MigrationSequencer) Restore(s MigrationSnapshot) {
	copy(m.old, s.Old)
	copy(m.est, s.Est)
	copy(m.target, s.Target)
	copy(m.need, s.Need)
	m.needN, m.wave = s.NeedN, s.Wave
}

// Hash mixes the sequencer's canonical state: the wave and the target and,
// while a migration is in flight, the old pattern, its known-active slots
// and the confirmations awaited. An idle sequencer's old pattern is dead
// state — Begin overwrites it before reading — so idle sequencers with
// equal targets hash equal.
func (m *MigrationSequencer) Hash(f *Fingerprint) {
	f.I64(int64(m.wave))
	for _, t := range m.target {
		f.Bool(t)
	}
	if m.wave == WaveIdle {
		return
	}
	for i := range m.old {
		f.Bool(m.old[i])
		f.Bool(m.est[i])
		f.Bool(m.need[i])
	}
}

// ControllerSnapshot is the complete externalised state of a Controller:
// its machines' snapshots (Mig is unused unless the instance is staged).
// The pattern scratch is not part of it — it is only read right after the
// Switch or Claim that fills it.
type ControllerSnapshot struct {
	Lease LeaseSnapshot
	Seq   SequencerSnapshot
	Mig   MigrationSnapshot
}

// SnapshotInto writes the instance's state into s, reusing its buffers.
func (c *Controller) SnapshotInto(s *ControllerSnapshot) {
	c.Lease.SnapshotInto(&s.Lease)
	c.Seq.SnapshotInto(&s.Seq)
	if c.mig != nil {
		c.mig.SnapshotInto(&s.Mig)
	}
}

// Restore overwrites the instance's state from a snapshot.
func (c *Controller) Restore(s ControllerSnapshot) {
	c.Lease.Restore(s.Lease)
	c.Seq.Restore(s.Seq)
	if c.mig != nil {
		c.mig.Restore(s.Mig)
	}
}

// Hash mixes the instance's canonical state at time now: its machines'
// hashes in elector, sequencer, migration order.
func (c *Controller) Hash(f *Fingerprint, now int64) {
	c.Lease.Hash(f, now)
	c.Seq.Hash(f, now)
	if c.mig != nil {
		c.mig.Hash(f)
	}
}

// WouldCommand reports, without side effects, what Command(pe, k, want,
// now) followed by Confirm(pe, k) would do — the enabledness predicate an
// exhaustive explorer uses for command events. send reports a command
// would be transmitted; bookkeep that only bookkeeping would happen:
// clearing a superseded command, or confirming a slot already acknowledged
// in the state the migration wave awaits.
func (c *Controller) WouldCommand(pe, k int, want bool, now int64) (send, bookkeep bool) {
	w, hold := c.want(pe, k, want)
	if !hold {
		superseded := c.Seq.Superseded(pe, k, w)
		if c.Seq.WouldSend(pe, k, w, now) || (c.mig != nil && superseded) {
			return true, false
		}
		bookkeep = superseded
	}
	if c.InFlight() && c.mig.need[pe*c.mig.k+k] {
		act, known := c.Seq.AckedState(pe, k)
		bookkeep = bookkeep || (known && act == (c.mig.wave == WaveActivate))
	}
	return false, bookkeep
}

// Hash mixes the proxy's idempotency state.
func (p ProxyState) Hash(f *Fingerprint) {
	f.U64(p.Epoch)
	f.U64(p.Seq)
}

// FailSafeSnapshot is the complete externalised state of a FailSafeTracker.
type FailSafeSnapshot[T Time] struct {
	Horizon     T
	LastContact T
	Engaged     bool
}

// Snapshot returns the tracker's state.
func (t *FailSafeTracker[T]) Snapshot() FailSafeSnapshot[T] {
	return FailSafeSnapshot[T]{Horizon: t.horizon, LastContact: t.lastContact, Engaged: t.engaged}
}

// Restore overwrites the tracker's state from a snapshot.
func (t *FailSafeTracker[T]) Restore(s FailSafeSnapshot[T]) {
	t.horizon, t.lastContact, t.engaged = s.Horizon, s.LastContact, s.Engaged
}

// HashFailSafe mixes a tracker snapshot's canonical state at time now: the
// engaged latch and the silence age clamped at the horizon.
func HashFailSafe(f *Fingerprint, s FailSafeSnapshot[int64], now int64) {
	f.Bool(s.Engaged)
	if s.Horizon < 0 {
		f.I64(-1) // disabled: age is irrelevant
		return
	}
	f.I64(clampAge(s.LastContact, now, s.Horizon))
}

// MonitorSnapshot is the complete externalised state of a RateMonitor (the
// configuration lookup is a construction constant and not part of it).
type MonitorSnapshot struct {
	Windows  []float64
	Measured []float64
	Applied  int
}

// Snapshot returns a freshly allocated copy of the monitor's state.
func (m *RateMonitor) Snapshot() MonitorSnapshot {
	return MonitorSnapshot{
		Windows:  append([]float64(nil), m.windows...),
		Measured: append([]float64(nil), m.measured...),
		Applied:  m.applied,
	}
}

// Restore overwrites the monitor's state from a snapshot. The snapshot's
// slices are copied, not aliased.
func (m *RateMonitor) Restore(s MonitorSnapshot) {
	copy(m.windows, s.Windows)
	copy(m.measured, s.Measured)
	m.applied = s.Applied
}
