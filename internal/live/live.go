// Package live is a real-time, goroutine-based operator runtime
// implementing the LAAR middleware of Section 4.6 on actual concurrent
// components: every PE replica runs in its own goroutine behind an
// HAProxy-like shim that accepts activation/deactivation commands, emits
// heartbeats, and forwards output only while its replica is the primary; a
// Rate Monitor measures source rates; the HAController maps them to input
// configurations through an R-tree and issues replica commands.
//
// Where the engine package simulates deterministic fluid flows on a virtual
// clock (for experiments), this package moves real tuples between real
// goroutines on the wall clock (for applications). Plain Operators are
// stateless, like the paper's synthetic workloads; operators implementing
// StatefulOperator additionally get the Section 4.6 re-synchronisation
// step — a replica joining (or rejoining) the active set restores a state
// snapshot taken from the PE's current primary before it resumes.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"laar/internal/clock"
	"laar/internal/controlplane"
	"laar/internal/core"
)

// Tuple is one data item flowing through the runtime.
type Tuple struct {
	// From is the component that produced the tuple.
	From core.ComponentID
	// Data is the application payload.
	Data any
}

// Operator transforms one input tuple into zero or more output payloads.
// Each replica gets its own Operator instance; an instance is only ever
// invoked from its replica's goroutine.
type Operator interface {
	Process(t Tuple) []any
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(t Tuple) []any

// Process implements Operator.
func (f OperatorFunc) Process(t Tuple) []any { return f(t) }

// Config holds live-runtime parameters.
type Config struct {
	// QueueLen is the per-replica input channel capacity. Default 64.
	QueueLen int
	// MonitorInterval is the Rate Monitor / HAController period.
	// Default 200 ms.
	MonitorInterval time.Duration
	// HeartbeatTimeout is how stale a replica's heartbeat may be before
	// the controller considers it dead. Default 3 monitor intervals.
	HeartbeatTimeout time.Duration
	// InitialConfig is the input configuration applied at Start.
	InitialConfig int
	// Clock supplies time to heartbeats, elections and the periodic
	// tickers. Default is the wall clock; tests and chaos runs inject a
	// FakeClock for deterministic, fast-forwarded timing.
	Clock Clock
	// Transport models the network between replica hosts and the
	// controller side (see Transport). Default: a perfect network. Inject a
	// NetFault to partition, lose or delay traffic mid-run.
	Transport Transport
	// Supervise enables the replica supervisor: a crashed replica's
	// goroutine is restarted with capped exponential backoff and stateful
	// re-sync, replacing the manual RecoverReplica-only path. With
	// supervision on, KillReplica really terminates the replica goroutine.
	Supervise bool
	// BackoffMin and BackoffMax bound the supervisor's restart backoff,
	// which doubles per crash cycle. Defaults: MonitorInterval and
	// 8 × BackoffMin.
	BackoffMin, BackoffMax time.Duration
	// Controllers is the number of replicated HAController instances
	// (at most 256). Instance 0 sits at ControllerHost, standby i at
	// ControllerEndpoint(i); the lowest-id instance heard fresh within
	// LeaseTTL holds the lease, and only the lease holder measures rates,
	// decides configurations, issues activation commands and elects
	// primaries. Default 1 — the original single controller.
	Controllers int
	// LeaseTTL is how stale a peer controller's heartbeat may be before the
	// lease rule presumes it dead. Default HeartbeatTimeout.
	LeaseTTL time.Duration
	// FailSafeHorizon arms the replica-side fail-safe rule: a replica whose
	// last controller contact is staler than this reverts to full
	// activation — it processes input despite a deactivation command, so
	// replication (and, for the last elected primary, output) survives a
	// control plane that is entirely down or unreachable. Default
	// 4 × HeartbeatTimeout; negative disables the rule. The rule is armed
	// only when it can matter: a fault-injectable transport or more than
	// one controller.
	FailSafeHorizon time.Duration
	// CommandRetryMin and CommandRetryMax bound the leader's backoff when
	// retransmitting unacknowledged activation commands, doubling per
	// attempt. Defaults: MonitorInterval and
	// controlplane.DefaultRetryMaxFactor × CommandRetryMin.
	CommandRetryMin, CommandRetryMax time.Duration
	// CheckpointPEs marks PEs (by dense index) that run under passive FT:
	// the leader periodically snapshots the PE's primary StatefulOperator,
	// and a replica joining without a live stateful primary to sync from is
	// restored from the last checkpoint instead of starting empty. Must be
	// empty or cover every PE.
	CheckpointPEs []bool
	// CheckpointInterval is the period of the leader's checkpoint snapshots.
	// Default MonitorInterval.
	CheckpointInterval time.Duration
	// Resolve enables leader-side incremental re-solving with IC-safe
	// staged migration (nil disables): on every configuration switch the
	// acting leader re-solves the activation strategy with its retained
	// incremental FT-Search solver — warm-started from the previous
	// solution and shifted to the source rates it measured — and drives the
	// replica set from the old activation pattern to the new one in two
	// waves through the acknowledged command protocol: every newly needed
	// replica is activated and confirmed before any old-only replica is
	// deactivated, so the internal-completeness floor holds at every
	// intermediate step. See ResolveConfig and MigrationHistory.
	Resolve *ResolveConfig
}

func (c Config) withDefaults() Config {
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 200 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.MonitorInterval
	}
	if c.Clock == nil {
		c.Clock = clock.Wall{}
	}
	if c.Transport == nil {
		c.Transport = perfectTransport{}
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = c.MonitorInterval
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * c.BackoffMin
	}
	if c.Controllers <= 0 {
		c.Controllers = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = c.HeartbeatTimeout
	}
	if c.FailSafeHorizon == 0 {
		c.FailSafeHorizon = 4 * c.HeartbeatTimeout
	}
	if c.CommandRetryMin <= 0 {
		c.CommandRetryMin = c.MonitorInterval
	}
	if c.CommandRetryMax <= 0 {
		c.CommandRetryMax = controlplane.DefaultRetryMaxFactor * c.CommandRetryMin
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = c.MonitorInterval
	}
	return c
}

// Stats summarises a live run.
type Stats struct {
	// Emitted counts tuples pushed per source.
	Emitted map[core.ComponentID]int64
	// SinkDelivered counts tuples delivered to sink callbacks.
	SinkDelivered int64
	// Processed[pe][replica] counts tuples processed per replica.
	Processed [][]int64
	// Dropped counts tuples lost to full replica queues.
	Dropped int64
	// NetDropped counts tuples lost in the transport: partition cuts plus
	// injected message loss.
	NetDropped int64
	// ConfigSwitches counts HAController reconfigurations.
	ConfigSwitches int64
	// Resolves counts leader-side incremental re-solves (Config.Resolve),
	// ResolveFailures the ones that produced no usable strategy, and
	// WarmResolves the ones warm-started from a surviving incumbent.
	Resolves, ResolveFailures, WarmResolves int64
	// ResolveNodes is the total search nodes explored across re-solves.
	ResolveNodes int64
	// MigrationCycles counts completed two-wave staged migrations.
	MigrationCycles int64
}

// replica is one running PE copy with its proxy state.
type replica struct {
	pe   int // dense index
	comp core.ComponentID
	idx  int
	host int // deployment host, the replica's transport endpoint
	in   chan Tuple
	op   Operator

	active    atomic.Bool
	alive     atomic.Bool
	processed atomic.Int64

	// view is the primary index this replica last learned from the
	// controller, and lastCtrl the time of that last controller contact.
	// The controller refreshes both only while it can reach the replica's
	// host, so an ex-primary cut off by a partition keeps a stale view and
	// keeps forwarding — until its lease (one HeartbeatTimeout since
	// lastCtrl) expires and it fences its own output. Split-brain is
	// thereby bounded to one lease window, mirroring the election window on
	// the controller side.
	view     atomic.Int32
	lastCtrl atomic.Int64

	// ctrlEpoch is the highest controller ballot this replica's proxy has
	// adopted, and cmdSeq the last command sequence applied within it — the
	// idempotency state of the ack'd command protocol. Both are guarded by
	// mu together with the state they fence (active, view).
	ctrlEpoch atomic.Uint64
	cmdSeq    atomic.Uint64

	// Supervision state. crash is the current incarnation's termination
	// channel (nil when no goroutine runs), guarded by mu; the schedule
	// fields are atomics so Stats can snapshot them from any goroutine.
	mu            sync.Mutex
	crash         chan struct{}
	restarts      atomic.Int64
	backoffNs     atomic.Int64
	nextRestartNs atomic.Int64
	lastRestartNs atomic.Int64
}

// beat records one replica heartbeat at every alive controller instance
// that can hear it: gated per link by the transport (a partitioned
// replica's beats never arrive at that instance, so its recorded heartbeat
// goes stale there and it loses that instance's next election) and aged by
// the link delay.
func (rt *Runtime) beat(rep *replica, now time.Time) {
	if !rep.alive.Load() {
		return
	}
	nowNs := now.UnixNano()
	for _, c := range rt.ctrls {
		if !c.alive.Load() {
			continue
		}
		if !rt.cfg.Transport.Reachable(rep.host, c.endpoint) {
			continue
		}
		at := nowNs
		if d := rt.cfg.Transport.Delay(rep.host, c.endpoint); d > 0 {
			at -= int64(d)
		}
		c.beats[rep.pe][rep.idx].Store(at)
	}
}

// Runtime executes one application. Build with New, then Start, Push
// tuples, and Stop.
type Runtime struct {
	d   *core.Descriptor
	asg *core.Assignment
	cfg Config

	// strat is the activation strategy the control plane drives — the one
	// handed to New until a leader-side re-solve (Config.Resolve) replaces
	// it. An atomic pointer: during a controller partition two believed
	// leaders may read and publish it concurrently.
	strat atomic.Pointer[core.Strategy]

	// migrations is the staged-migration history (Config.Resolve).
	migMu      sync.Mutex
	migrations []MigrationRecord

	replicas  [][]*replica
	primaries []atomic.Int32 // per PE; -1 when dark
	applied   atomic.Int32

	// routes[comp] lists destination (pe, —) pairs; sink edges counted.
	routes  map[core.ComponentID][]int // successor dense PE indices
	sinkDst map[core.ComponentID][]core.ComponentID
	// srcWindow[ctrl][src] counts tuples since controller ctrl's last
	// measurement — every instance runs its own Rate Monitor window, so a
	// standby promoted to leader decides from rates it measured itself.
	srcWindow [][]atomic.Int64
	emitted   map[core.ComponentID]*atomic.Int64

	// ctrls are the replicated HAController instances; leases is the
	// lease-grant history they append claims to under leaseMu.
	ctrls   []*controller
	leases  []LeaseGrant
	leaseMu sync.Mutex

	// failSafeOn arms the replica-side fail-safe rule (FailSafeHorizon).
	failSafeOn bool

	sinkFn func(sink core.ComponentID, t Tuple)

	dropped    atomic.Int64
	netDropped atomic.Int64
	sinkN      atomic.Int64
	switches   atomic.Int64

	// Checkpoint state (Config.CheckpointPEs): the last per-PE snapshot and
	// its take time, plus the taken/restored tallies. ckptState is nil when
	// no PE checkpoints.
	ckptMu       sync.Mutex
	ckptState    []any
	ckptLastNs   []int64
	ckptTaken    atomic.Int64
	ckptRestored atomic.Int64

	// fence enables the replica-side lease check. With the default perfect
	// transport the controller's view can never go stale, so the check is
	// skipped and wall-clock scheduling hiccups cannot fence a healthy
	// primary.
	fence bool

	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool
}

// New builds a runtime for the application described by d, deployed per asg
// with activation strategy strat. The factory is called once per replica to
// create its Operator instance.
func New(d *core.Descriptor, asg *core.Assignment, strat *core.Strategy, factory func(pe core.ComponentID, replica int) Operator, cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	app := d.App
	if asg.NumPEs() != app.NumPEs() {
		return nil, fmt.Errorf("live: assignment covers %d PEs, application has %d", asg.NumPEs(), app.NumPEs())
	}
	if strat.NumConfigs() != d.NumConfigs() || strat.NumPEs() != app.NumPEs() || strat.K != asg.K {
		return nil, fmt.Errorf("live: strategy shape does not match deployment")
	}
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialConfig < 0 || cfg.InitialConfig >= d.NumConfigs() {
		return nil, fmt.Errorf("live: initial configuration %d out of range", cfg.InitialConfig)
	}
	if factory == nil {
		return nil, fmt.Errorf("live: nil operator factory")
	}
	if cfg.Controllers > controlplane.MaxControllers {
		return nil, fmt.Errorf("live: %d controllers exceed the %d the ballot encoding carries", cfg.Controllers, controlplane.MaxControllers)
	}
	if len(cfg.CheckpointPEs) != 0 && len(cfg.CheckpointPEs) != app.NumPEs() {
		return nil, fmt.Errorf("live: CheckpointPEs covers %d PEs, application has %d", len(cfg.CheckpointPEs), app.NumPEs())
	}
	if rc := cfg.Resolve; rc != nil {
		if rc.ICMin < 0 || rc.ICMin > 1 {
			return nil, fmt.Errorf("live: Resolve.ICMin %v outside [0, 1]", rc.ICMin)
		}
		if rc.Budget < 0 {
			return nil, fmt.Errorf("live: negative Resolve.Budget %v", rc.Budget)
		}
	}
	rt := &Runtime{
		d:         d,
		asg:       asg,
		cfg:       cfg,
		routes:    make(map[core.ComponentID][]int),
		sinkDst:   make(map[core.ComponentID][]core.ComponentID),
		emitted:   make(map[core.ComponentID]*atomic.Int64),
		primaries: make([]atomic.Int32, app.NumPEs()),
		stop:      make(chan struct{}),
	}
	for _, ck := range cfg.CheckpointPEs {
		if ck {
			rt.ckptState = make([]any, app.NumPEs())
			rt.ckptLastNs = make([]int64, app.NumPEs())
			break
		}
	}
	_, perfect := cfg.Transport.(perfectTransport)
	rt.fence = !perfect
	rt.failSafeOn = (rt.fence || cfg.Controllers > 1) && cfg.FailSafeHorizon >= 0
	rt.strat.Store(strat)
	rt.applied.Store(int32(cfg.InitialConfig))
	now := cfg.Clock.Now()
	// Every instance's Rate Monitor machine shares the configuration rate
	// points; the machine owns its R-tree, so the runtime keeps none.
	cfgRates := make([][]float64, len(d.Configs))
	for c := range d.Configs {
		cfgRates[c] = d.Configs[c].Rates
	}
	rates := core.NewRates(d)
	maxCfg := rates.MaxConfig()
	rt.srcWindow = make([][]atomic.Int64, cfg.Controllers)
	rt.ctrls = make([]*controller, cfg.Controllers)
	for i := range rt.ctrls {
		rt.srcWindow[i] = make([]atomic.Int64, app.NumSources())
		rt.ctrls[i] = newController(i, app.NumPEs(), asg.K, cfg.Controllers, cfgRates, maxCfg, cfg.InitialConfig, cfg, now)
	}
	if cfg.Resolve != nil {
		if err := rt.initResolve(rates); err != nil {
			return nil, err
		}
	}
	// Every instance starts having just heard every peer, so standbys do
	// not contest the initial grant before the first heartbeat round. (The
	// electors are seeded the same way; the mailboxes must match so the
	// first drain does not age the peers back to zero.)
	for _, c := range rt.ctrls {
		for j := range c.lastHeard {
			c.lastHeard[j].Store(now.UnixNano())
		}
	}
	rt.replicas = make([][]*replica, app.NumPEs())
	for _, id := range app.PEs() {
		pe := app.PEIndex(id)
		rt.replicas[pe] = make([]*replica, asg.K)
		for k := 0; k < asg.K; k++ {
			rep := &replica{
				pe:   pe,
				comp: id,
				idx:  k,
				host: asg.HostOf(pe, k),
				in:   make(chan Tuple, cfg.QueueLen),
				op:   factory(id, k),
			}
			rep.alive.Store(true)
			rep.active.Store(strat.IsActive(cfg.InitialConfig, pe, k))
			rep.view.Store(-1)
			rt.replicas[pe][k] = rep
		}
	}
	for _, e := range app.Edges() {
		switch app.Component(e.To).Kind {
		case core.KindPE:
			rt.routes[e.From] = append(rt.routes[e.From], app.PEIndex(e.To))
		case core.KindSink:
			rt.sinkDst[e.From] = append(rt.sinkDst[e.From], e.To)
		}
	}
	for _, id := range app.Sources() {
		rt.emitted[id] = &atomic.Int64{}
	}
	for _, reps := range rt.replicas {
		for _, rep := range reps {
			rt.beat(rep, now)
		}
	}
	// The initial lease is granted to instance 0 synchronously, so the
	// runtime is never leaderless at Start and a single-controller
	// deployment behaves exactly as the pre-replication runtime did.
	rt.claimed(rt.ctrls[0], rt.ctrls[0].ctl.Claim(strat, cfg.InitialConfig), cfg.InitialConfig, now)
	rt.electAllAs(rt.ctrls[0], now)
	return rt, nil
}

// OnSink registers the callback invoked for every tuple delivered to a
// sink. It must be set before Start; the callback may be invoked from
// multiple goroutines concurrently.
func (rt *Runtime) OnSink(fn func(sink core.ComponentID, t Tuple)) {
	rt.sinkFn = fn
}

// Start launches the replica and controller goroutines.
func (rt *Runtime) Start() error {
	if !rt.started.CompareAndSwap(false, true) {
		return fmt.Errorf("live: Start called twice")
	}
	for _, reps := range rt.replicas {
		for _, rep := range reps {
			var crash chan struct{}
			if rt.cfg.Supervise {
				crash = make(chan struct{})
				rep.mu.Lock()
				rep.crash = crash
				rep.mu.Unlock()
			}
			rt.wg.Add(1)
			go rt.runReplica(rep, crash)
		}
	}
	for _, c := range rt.ctrls {
		rt.wg.Add(1)
		go rt.runController(c)
	}
	return nil
}

// Push delivers one tuple from a source into the application. It is safe
// for concurrent use.
func (rt *Runtime) Push(src core.ComponentID, data any) error {
	si := rt.d.App.SourceIndex(src)
	if si < 0 {
		return fmt.Errorf("live: component %d is not a source", src)
	}
	for ci := range rt.srcWindow {
		rt.srcWindow[ci][si].Add(1)
	}
	rt.emitted[src].Add(1)
	rt.fanOut(Tuple{From: src, Data: data}, ControllerHost)
	return nil
}

// fanOut delivers a tuple sent from the fromHost endpoint (ControllerHost
// for sources) to every replica of each successor PE of its origin. Copies
// that cannot traverse the transport — a cut link or injected message loss
// — are counted in NetDropped; full queues drop as before. Deactivated
// replicas receive input anyway while they operate under the fail-safe
// rule, since they will process it.
func (rt *Runtime) fanOut(t Tuple, fromHost int) {
	var nowNs int64 // lazily read: only fail-safe eligibility needs it
	for _, pe := range rt.routes[t.From] {
		for _, rep := range rt.replicas[pe] {
			if !rep.alive.Load() {
				continue
			}
			if !rep.active.Load() {
				if !rt.failSafeOn {
					continue
				}
				if nowNs == 0 {
					nowNs = rt.cfg.Clock.Now().UnixNano()
				}
				if !rt.failSafeActive(rep, nowNs) {
					continue
				}
			}
			if fromHost != rep.host &&
				(!rt.cfg.Transport.Reachable(fromHost, rep.host) || rt.cfg.Transport.DropData(fromHost, rep.host)) {
				rt.netDropped.Add(1)
				continue
			}
			select {
			case rep.in <- t:
			default:
				rt.dropped.Add(1)
			}
		}
	}
}

// runReplica is the proxied replica loop: heartbeat, accept input, process,
// and forward output while the replica believes it is primary. crash is the
// incarnation's termination channel (nil when supervision is off — a nil
// channel never fires).
func (rt *Runtime) runReplica(rep *replica, crash <-chan struct{}) {
	defer rt.wg.Done()
	ticker := rt.cfg.Clock.NewTicker(rt.cfg.MonitorInterval / 2)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-crash:
			return
		case now := <-ticker.C:
			rt.beat(rep, now)
		case t := <-rep.in:
			rt.beat(rep, rt.cfg.Clock.Now())
			if !rep.alive.Load() {
				continue // commands raced with queued input: discard
			}
			if !rep.active.Load() &&
				!(rt.failSafeOn && rt.failSafeActive(rep, rt.cfg.Clock.Now().UnixNano())) {
				continue // deactivated, and the fail-safe rule does not apply
			}
			outs := rep.op.Process(t)
			rep.processed.Add(1)
			if len(outs) == 0 {
				continue
			}
			if rep.view.Load() != int32(rep.idx) {
				continue // secondaries process but do not forward
			}
			if rt.fence {
				// Within (HeartbeatTimeout, FailSafeHorizon] a stale lease
				// fences the ex-primary's output — the split-brain bound.
				// Beyond the horizon the fail-safe rule lifts the fence: with
				// the whole control plane gone there is no election to
				// conflict with, and the last elected primary keeps the PE's
				// output flowing.
				stale := rt.cfg.Clock.Now().UnixNano() - rep.lastCtrl.Load()
				if stale > int64(rt.cfg.HeartbeatTimeout) &&
					!(rt.failSafeOn && stale > int64(rt.cfg.FailSafeHorizon)) {
					continue
				}
			}
			for _, data := range outs {
				out := Tuple{From: rep.comp, Data: data}
				rt.fanOut(out, rep.host)
				for _, sink := range rt.sinkDst[rep.comp] {
					if !rt.cfg.Transport.Reachable(rep.host, ControllerHost) ||
						rt.cfg.Transport.DropData(rep.host, ControllerHost) {
						rt.netDropped.Add(1)
						continue
					}
					rt.sinkN.Add(1)
					if rt.sinkFn != nil {
						rt.sinkFn(sink, out)
					}
				}
			}
		}
	}
}

// ObservablePrimaries returns, per PE, the replicas that currently believe
// themselves primary and whose host the acting leader's endpoint can reach
// — the split-brain check: once elections settle, each PE has at most one
// entry. With the control plane entirely down the observation point falls
// back to ControllerHost.
func (rt *Runtime) ObservablePrimaries() [][]int {
	ep := ControllerHost
	if id, _ := rt.Leader(); id >= 0 {
		ep = rt.ctrls[id].endpoint
	}
	out := make([][]int, len(rt.replicas))
	for pe := range rt.replicas {
		for k, rep := range rt.replicas[pe] {
			if rep.alive.Load() && rep.view.Load() == int32(k) &&
				rt.cfg.Transport.Reachable(ep, rep.host) {
				out[pe] = append(out[pe], k)
			}
		}
	}
	return out
}

// KillReplica crashes one replica: it stops heartbeating and discards
// input. Killing an already-dead replica is an error — callers injecting
// faults should know their schedule collided. Without supervision the
// controller fails over on its next scan and the replica waits for
// RecoverReplica; with supervision the replica goroutine really terminates
// and the supervisor restarts it after backoff.
func (rt *Runtime) KillReplica(pe core.ComponentID, idx int) error {
	rep, err := rt.lookupReplica(pe, idx)
	if err != nil {
		return err
	}
	if !rep.alive.CompareAndSwap(true, false) {
		return fmt.Errorf("live: replica (%d, %d) is already dead", pe, idx)
	}
	if rt.cfg.Supervise {
		rep.stopIncarnation()
	}
	return nil
}

// RecoverReplica brings a crashed replica back; recovering an alive one is
// an error. Stateful operators (see StatefulOperator) are re-synchronised
// from the PE's current primary before resuming; stateless operators simply
// rejoin the live stream. Under supervision this is the manual override: it
// restarts the goroutine immediately and resets the backoff schedule.
func (rt *Runtime) RecoverReplica(pe core.ComponentID, idx int) error {
	rep, err := rt.lookupReplica(pe, idx)
	if err != nil {
		return err
	}
	if rep.alive.Load() {
		return fmt.Errorf("live: replica (%d, %d) is already alive", pe, idx)
	}
	if rt.cfg.Supervise && rt.started.Load() && !rt.stopped.Load() {
		rep.backoffNs.Store(0)
		rep.nextRestartNs.Store(0)
		rt.restartReplica(rep, rt.cfg.Clock.Now())
		return nil
	}
	rt.markJoining(rep.pe, rep)
	rep.alive.Store(true)
	return nil
}

func (rt *Runtime) lookupReplica(pe core.ComponentID, idx int) (*replica, error) {
	pi := rt.d.App.PEIndex(pe)
	if pi < 0 {
		return nil, fmt.Errorf("live: component %d is not a PE", pe)
	}
	if idx < 0 || idx >= rt.asg.K {
		return nil, fmt.Errorf("live: replica index %d out of range", idx)
	}
	return rt.replicas[pi][idx], nil
}

// AppliedConfig returns the input configuration the controller currently
// has applied.
func (rt *Runtime) AppliedConfig() int { return int(rt.applied.Load()) }

// Primary returns the current primary replica index of a PE, or -1 when
// the PE is dark.
func (rt *Runtime) Primary(pe core.ComponentID) int {
	pi := rt.d.App.PEIndex(pe)
	if pi < 0 {
		return -1
	}
	return int(rt.primaries[pi].Load())
}

// Stop terminates all goroutines and returns the run's statistics. It may
// be called once, after Start.
func (rt *Runtime) Stop() (*Stats, error) {
	if !rt.started.Load() {
		return nil, fmt.Errorf("live: Stop before Start")
	}
	if !rt.stopped.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("live: Stop called twice")
	}
	close(rt.stop)
	rt.wg.Wait()
	st := &Stats{
		Emitted:        make(map[core.ComponentID]int64, len(rt.emitted)),
		SinkDelivered:  rt.sinkN.Load(),
		Dropped:        rt.dropped.Load(),
		NetDropped:     rt.netDropped.Load(),
		ConfigSwitches: rt.switches.Load(),
	}
	for _, c := range rt.ctrls {
		st.Resolves += c.resolves.Load()
		st.ResolveFailures += c.resolveFailures.Load()
		st.WarmResolves += c.warmResolves.Load()
		st.ResolveNodes += c.resolveNodes.Load()
		st.MigrationCycles += c.migCycles.Load()
	}
	for id, n := range rt.emitted {
		st.Emitted[id] = n.Load()
	}
	st.Processed = make([][]int64, len(rt.replicas))
	for pe := range rt.replicas {
		st.Processed[pe] = make([]int64, len(rt.replicas[pe]))
		for k, rep := range rt.replicas[pe] {
			st.Processed[pe][k] = rep.processed.Load()
		}
	}
	return st, nil
}
