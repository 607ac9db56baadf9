// Package mcheck is a bounded exhaustive model checker for the
// control-plane kernel: it explores every interleaving of instance
// crashes, recoveries, link cuts, command deliveries and losses, target
// flips and clock ticks over a small deployment of the pure controlplane
// machines (controller instances — each a controlplane.Controller with its
// lease elector, command sequencer and, in migration mode, migration
// sequencer — replica proxies and the fail-safe tracker), checking the
// per-state invariant registry of internal/chaos at every reachable state.
//
// Tractability comes from canonical state hashing: states are fingerprinted
// through the machines' time-shift-invariant hashes (heartbeat ages clamped
// at the TTL, retransmission waits clamped at the backoff ceiling), so
// states reached by different event orders — or at different absolute
// depths — collapse into one visited-set entry. Small-scope exploration of
// 2–3 instances to modest depth covers the interleavings that matter for
// the protocol's safety arguments: the paper's HAController correctness
// rests on exactly these machines.
package mcheck

import (
	"fmt"

	"laar/internal/chaos"
	"laar/internal/controlplane"
)

// Fault selects a deliberate kernel bug to inject into the explored world —
// the checker's own self-test: every fault must yield a counterexample, and
// the shrinker must reduce it to a 1-minimal schedule.
type Fault int

const (
	// FaultNone explores the correct kernel.
	FaultNone Fault = iota
	// FaultCrashKeepsPending makes a crashing leader keep its in-flight
	// commands instead of dropping them — no-zombie-commands must fire.
	FaultCrashKeepsPending
	// FaultClaimAdoptsSeen makes a claiming instance adopt the watermark
	// ballot verbatim instead of claiming strictly above it with its own id
	// — ballot-holder must fire.
	FaultClaimAdoptsSeen
	// FaultDupReapplies makes a replica proxy re-apply a duplicate command
	// instead of re-acknowledging it, rewinding its dedup cursor —
	// proxy-monotone must fire.
	FaultDupReapplies
	// FaultDeactivateFirst bypasses the staged-migration wave order: the
	// leader commands the bare new pattern instead of the Controller's
	// wave-gated want, so the old primary can be deactivated before its
	// replacement is up — ic-floor-during-migration must fire. Requires
	// Options.Migration.
	FaultDeactivateFirst
)

// String names the fault for reports and artifacts.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultCrashKeepsPending:
		return "crash-keeps-pending"
	case FaultClaimAdoptsSeen:
		return "claim-adopts-seen"
	case FaultDupReapplies:
		return "dup-reapplies"
	case FaultDeactivateFirst:
		return "deactivate-first"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// ParseFault resolves a fault name from the CLI.
func ParseFault(s string) (Fault, error) {
	for _, f := range []Fault{FaultNone, FaultCrashKeepsPending, FaultClaimAdoptsSeen, FaultDupReapplies, FaultDeactivateFirst} {
		if f.String() == s {
			return f, nil
		}
	}
	return FaultNone, fmt.Errorf("mcheck: unknown fault %q", s)
}

// Options sizes the explored world. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// Instances is the number of controller instances (2–3 is the useful
	// small-scope range; the state space grows steeply beyond).
	Instances int `json:"instances"`
	// PEs and K shape the replica side: PEs × K proxy slots.
	PEs int `json:"pes"`
	K   int `json:"k"`
	// Depth bounds the schedule length in events.
	Depth int `json:"depth"`
	// MaxStates caps the visited-state set; 0 is unlimited. When the cap is
	// hit the exploration reports Truncated instead of exhaustiveness.
	MaxStates int `json:"maxStates,omitempty"`
	// TTL is the lease TTL in ticks; RetryMin/RetryMax the retransmission
	// backoff band; FailSafe the replica-side silence horizon in ticks.
	TTL      int64 `json:"ttl"`
	RetryMin int64 `json:"retryMin"`
	RetryMax int64 `json:"retryMax"`
	FailSafe int64 `json:"failSafe"`
	// Migration switches the explored world to staged primary-swap
	// migrations: target 0 wants replica 0 of each PE, target 1 wants
	// replica 1, and every leader runs a flip through its Controller's
	// two-wave protocol (activate the union, then deactivate the leavers)
	// instead of changing wants instantly. The waves advance on
	// acknowledged deliveries.
	Migration bool `json:"migration,omitempty"`
	// Fault injects a deliberate kernel bug (see Fault).
	Fault Fault `json:"fault,omitempty"`
}

// DefaultOptions is the smallest world that exercises every machine: two
// instances, one PE with two replicas, and timing constants compressed so
// lease expiry, retransmission backoff and the fail-safe horizon are all
// reachable within a depth-8 schedule.
func DefaultOptions() Options {
	return Options{
		Instances: 2,
		PEs:       1,
		K:         2,
		Depth:     8,
		TTL:       3,
		RetryMin:  1,
		RetryMax:  2,
		FailSafe:  4,
	}
}

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Instances == 0 {
		o.Instances = d.Instances
	}
	if o.PEs == 0 {
		o.PEs = d.PEs
	}
	if o.K == 0 {
		o.K = d.K
	}
	if o.Depth == 0 {
		o.Depth = d.Depth
	}
	if o.TTL == 0 {
		o.TTL = d.TTL
	}
	if o.RetryMin == 0 {
		o.RetryMin = d.RetryMin
	}
	if o.RetryMax == 0 {
		o.RetryMax = d.RetryMax
	}
	if o.FailSafe == 0 {
		o.FailSafe = d.FailSafe
	}
	return o
}

// validate rejects unusable shapes.
func (o Options) validate() error {
	switch {
	case o.Instances < 1 || o.Instances > controlplane.MaxControllers:
		return fmt.Errorf("mcheck: instances %d outside [1, %d]", o.Instances, controlplane.MaxControllers)
	case o.PEs < 1 || o.K < 1:
		return fmt.Errorf("mcheck: need at least one PE and one replica (got %d×%d)", o.PEs, o.K)
	case o.Depth < 1:
		return fmt.Errorf("mcheck: non-positive depth %d", o.Depth)
	case o.TTL < 1 || o.RetryMin < 1 || o.RetryMax < o.RetryMin:
		return fmt.Errorf("mcheck: bad timing (ttl=%d retry=[%d,%d])", o.TTL, o.RetryMin, o.RetryMax)
	case o.FailSafe < 1:
		return fmt.Errorf("mcheck: non-positive fail-safe horizon %d", o.FailSafe)
	case o.Migration && o.K < 2:
		return fmt.Errorf("mcheck: migration mode swaps primaries between replicas 0 and 1, need K ≥ 2 (got %d)", o.K)
	}
	return nil
}

// winst is one controller instance of the explored world.
type winst struct {
	up  bool
	ctl *controlplane.Controller
}

// world is the complete explored state: the controller instances, the
// instance↔instance link matrix, the replica proxies with their activation
// bits, the fail-safe tracker, and the wanted activation target.
type world struct {
	opt    Options
	now    int64
	target int // wanted configuration (see strategy)
	insts  []winst
	cut    []bool // flattened Instances×Instances link-cut matrix
	prox   []controlplane.ProxyState
	active []bool
	fs     *controlplane.FailSafeTracker[int64]
}

// newWorld builds the initial state: every instance up, all links intact,
// every replica inactive with a zero proxy, no leader yet.
func newWorld(opt Options) *world {
	w := &world{
		opt:    opt,
		insts:  make([]winst, opt.Instances),
		cut:    make([]bool, opt.Instances*opt.Instances),
		prox:   make([]controlplane.ProxyState, opt.PEs*opt.K),
		active: make([]bool, opt.PEs*opt.K),
		fs:     controlplane.NewFailSafeTracker[int64](opt.FailSafe, 0),
	}
	policy := controlplane.RetryPolicy{Min: opt.RetryMin, Max: opt.RetryMax}
	for i := range w.insts {
		w.insts[i] = winst{
			up: true,
			ctl: controlplane.NewController(
				controlplane.NewLeaseElector(i, opt.Instances, opt.TTL, 0),
				controlplane.NewCommandSequencer(opt.PEs, opt.K, policy),
				opt.Migration),
		}
	}
	return w
}

// strategy is the explored world's activation strategy. Without
// Migration, configuration 0 activates every replica and configuration 1
// only replica 0 of each PE — the flip that forces real (de)activation
// commands through the sequencer. With Migration, the configurations are
// primary swaps: configuration c wants replica c of each PE.
type strategy struct{ migration bool }

func (s strategy) IsActive(cfg, _, k int) bool {
	if s.migration {
		return k == cfg
	}
	return cfg == 0 || k == 0
}

// slotEvents reports which command events leading instance in has for
// slot: transmit when a command is due (deliver, drop-cmd and drop-ack
// are all enabled), bookkeep when only the plain deliver event has work
// (see Controller.WouldCommand). Under FaultDeactivateFirst the leader
// steps its sequencer toward the bare target pattern, bypassing the
// Controller's wave gate.
func (w *world) slotEvents(in *winst, slot int) (transmit, bookkeep bool) {
	pe, k := slot/w.opt.K, slot%w.opt.K
	bare := strategy{w.opt.Migration}.IsActive(w.target, pe, k)
	if w.opt.Fault == FaultDeactivateFirst {
		transmit = in.ctl.Seq.WouldSend(pe, k, bare, w.now)
		return transmit, !transmit && in.ctl.Seq.Superseded(pe, k, bare)
	}
	return in.ctl.WouldCommand(pe, k, bare, w.now)
}

// cutAt reads the link matrix.
func (w *world) cutAt(i, j int) bool { return w.cut[i*w.opt.Instances+j] }

// setCut writes both directions of the link matrix.
func (w *world) setCut(i, j int, v bool) {
	w.cut[i*w.opt.Instances+j] = v
	w.cut[j*w.opt.Instances+i] = v
}

// fillView projects the world into a chaos.CPView for invariant checking.
func (w *world) fillView(v *chaos.CPView) {
	v.Now = w.now
	v.MigrationWave = controlplane.WaveIdle
	for i := range w.insts {
		in := &w.insts[i]
		v.Instances[i] = chaos.CPInstanceView{
			Up: in.up, Leading: in.ctl.Lease.Leading(),
			Epoch: in.ctl.Lease.Epoch(), MaxSeen: in.ctl.Lease.MaxSeen(),
			SeqEpoch: in.ctl.Seq.Epoch(), Pending: in.ctl.Seq.Pending(),
		}
		if v.MigrationWave == controlplane.WaveIdle {
			v.MigrationWave = in.ctl.Wave()
		}
	}
	copy(v.Proxies, w.prox)
	copy(v.Active, w.active)
	v.SlotsPerPE = w.opt.K
	fs := w.fs.Snapshot()
	v.FailSafeEngaged, v.FailSafeHorizon, v.FailSafeLastContact = fs.Engaged, fs.Horizon, fs.LastContact
}

// fingerprint hashes the world's canonical state: every component is hashed
// through its time-shift-invariant form, so two worlds that differ only by
// a uniform clock shift (and by ages beyond their clamping horizons) merge.
func (w *world) fingerprint(f *controlplane.Fingerprint) uint64 {
	f.Reset()
	f.I64(int64(w.target))
	for i := range w.insts {
		in := &w.insts[i]
		f.Bool(in.up)
		in.ctl.Hash(f, w.now)
	}
	for _, c := range w.cut {
		f.Bool(c)
	}
	for _, p := range w.prox {
		p.Hash(f)
	}
	for _, a := range w.active {
		f.Bool(a)
	}
	controlplane.HashFailSafe(f, w.fs.Snapshot(), w.now)
	return f.Sum()
}

// wsnap is a reusable world snapshot for branch-and-restore exploration.
type wsnap struct {
	now    int64
	target int
	up     []bool
	ctl    []controlplane.ControllerSnapshot
	cut    []bool
	prox   []controlplane.ProxyState
	active []bool
	fs     controlplane.FailSafeSnapshot[int64]
}

// newSnap allocates a snapshot sized for the world.
func newSnap(opt Options) *wsnap {
	return &wsnap{
		up:     make([]bool, opt.Instances),
		ctl:    make([]controlplane.ControllerSnapshot, opt.Instances),
		cut:    make([]bool, opt.Instances*opt.Instances),
		prox:   make([]controlplane.ProxyState, opt.PEs*opt.K),
		active: make([]bool, opt.PEs*opt.K),
	}
}

// save captures the world into the snapshot, reusing its buffers.
func (s *wsnap) save(w *world) {
	s.now, s.target = w.now, w.target
	for i := range w.insts {
		s.up[i] = w.insts[i].up
		w.insts[i].ctl.SnapshotInto(&s.ctl[i])
	}
	copy(s.cut, w.cut)
	copy(s.prox, w.prox)
	copy(s.active, w.active)
	s.fs = w.fs.Snapshot()
}

// restore rewinds the world to the snapshot.
func (s *wsnap) restore(w *world) {
	w.now, w.target = s.now, s.target
	for i := range w.insts {
		w.insts[i].up = s.up[i]
		w.insts[i].ctl.Restore(s.ctl[i])
	}
	copy(w.cut, s.cut)
	copy(w.prox, s.prox)
	copy(w.active, s.active)
	w.fs.Restore(s.fs)
}
