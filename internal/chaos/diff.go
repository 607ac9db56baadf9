package chaos

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"laar/internal/core"
	"laar/internal/engine"
	"laar/internal/live"
)

// DiffResult is the outcome of one differential run: the same application,
// activation strategy, input trace and failure schedule executed on the
// discrete-event engine and on the goroutine live runtime.
type DiffResult struct {
	Scenario Scenario
	Schedule *Schedule
	// EngineSink and LiveSink count tuples delivered to the sink by each
	// leg. The engine counts fluid amounts; the live leg counts discrete
	// tuples.
	EngineSink, LiveSink float64
	// Tolerance is the allowed absolute disagreement, derived from the
	// schedule: a relative term for discretisation and in-flight tail,
	// plus a failover-lag term per failure event (the live controller
	// detects failures one heartbeat/scan later than the engine's
	// instantaneous election).
	Tolerance float64
	// LivePrimaries[pe] is the live runtime's primary at quiescence.
	LivePrimaries []int
	// LiveMigrations is the live leg's staged-migration history (reconfig
	// classes run the live leg with the two-wave protocol while the engine
	// leg flips instantaneously — the comparison proves the staging is
	// behaviour-preserving); FloorErr is the first
	// ic-floor-during-migration breach found in it, nil when clean.
	LiveMigrations []live.MigrationRecord
	FloorErr       error
}

// Agree reports whether the two legs match within tolerance.
func (dr *DiffResult) Agree() bool {
	return math.Abs(dr.EngineSink-dr.LiveSink) <= dr.Tolerance
}

// Err returns nil when the legs agree (and the live leg's staged
// migrations, if any, held the IC floor) and a descriptive error otherwise.
func (dr *DiffResult) Err() error {
	if dr.FloorErr != nil {
		return fmt.Errorf("chaos: live leg ic-floor-during-migration: %w (%s)", dr.FloorErr, dr.Schedule.Describe())
	}
	if dr.Agree() {
		return nil
	}
	return fmt.Errorf("chaos: engine and live disagree: engine sank %.1f tuples, live %d, tolerance %.1f (%s)",
		dr.EngineSink, int64(dr.LiveSink), dr.Tolerance, dr.Schedule.Describe())
}

// liveQuantum is the fake-time step the live driver advances per iteration;
// it mirrors the engine's default tick.
const liveQuantum = 100 * time.Millisecond

// liveMonitor is the live Rate Monitor period in fake time, matching the
// engine's default monitor interval.
const liveMonitor = time.Second

// newLive builds the echo-operator live runtime a harness leg drives, on a
// fake clock and a fault-injecting transport, with cfg's queue, monitor
// period and initial configuration set to the harness's.
func newLive(sys *System, sched *Schedule, cfg live.Config) (*live.Runtime, *live.FakeClock, *live.NetFault, error) {
	fc, net := live.NewFakeClock(time.Unix(0, 0)), live.NewNetFault(0)
	cfg.QueueLen, cfg.MonitorInterval, cfg.InitialConfig = 256, liveMonitor, sched.Trace.ConfigAt(0)
	cfg.Clock, cfg.Transport = fc, net
	rt, err := live.New(sys.Desc, sys.Asg, sys.Strat,
		func(core.ComponentID, int) live.Operator {
			return live.OperatorFunc(func(t live.Tuple) []any { return []any{t.Data} })
		}, cfg)
	return rt, fc, net, err
}

// Diff runs one scenario differentially: a fixed identity pipeline (unit
// selectivity, negligible cost, so the live operators compute exactly what
// the engine's fluid model predicts) is deployed on both runtimes and
// driven through the scenario's trace and failure schedule, and the sink
// deliveries are compared. The live leg runs on a FakeClock, so a
// multi-minute scenario completes in milliseconds and the failure events
// land at the same (virtual) instants as in the engine.
func Diff(sc Scenario) (*DiffResult, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	sys, ids, err := pipelineSystem(sc.Duration)
	if err != nil {
		return nil, err
	}
	staged := reconfigClass(sc.Class)
	if staged {
		// LAAR-style strategy: both replicas active at Low, only replica 0
		// at High, so every trace boundary carries a real activation diff
		// for the live leg to migrate through. Replica 0 stays active in
		// both configurations, so the primary (and hence the sink count) is
		// independent of the staging, and the instantaneous engine flip
		// remains the behavioural reference.
		strat := sys.Strat.Clone()
		for pe := 0; pe < sys.Asg.NumPEs(); pe++ {
			strat.Set(sys.HighCfg, pe, 1, false)
		}
		sys.Strat = strat
	}
	sched, err := BuildSchedule(sc, sys)
	if err != nil {
		return nil, err
	}
	// The engine's glitch noise is private to its RNG and cannot be
	// replayed through Push calls, so differential runs are noise-free.
	// Gray slowdowns are dropped from both legs: the live identity operators
	// have no CPU cost to degrade, so the engine's fluid slowdown has no
	// live counterpart to diff against.
	sched.Glitch = 0
	sched.Events = diffableEvents(sched.Events)

	sim, err := engine.New(sys.Desc, sys.Asg, sys.Strat, sched.Trace, engine.Config{Shards: sc.Shards, Domains: sys.Domains})
	if err != nil {
		return nil, err
	}
	if err := sim.InjectAll(sched.Events); err != nil {
		return nil, err
	}
	em, err := sim.Run()
	if err != nil {
		return nil, err
	}

	liveSink, primaries, migrations, err := runLiveLeg(sys, ids, sched, sc.Duration, staged)
	if err != nil {
		return nil, err
	}
	var floorErr error
	for i, rec := range migrations {
		if err := migrationFloorErr(sys.Rates, rec.FromCfg, rec.ToCfg, rec.Old, rec.Mid, rec.New); err != nil {
			floorErr = fmt.Errorf("migration %d (cfg %d→%d): %w", i, rec.FromCfg, rec.ToCfg, err)
			break
		}
	}

	maxRate := math.Max(sys.Desc.Configs[sys.LowCfg].Rates[0], sys.Desc.Configs[sys.HighCfg].Rates[0])
	downs, cuts := 0, 0
	for _, ev := range sched.Events {
		switch ev.Kind {
		case engine.ReplicaDown, engine.HostDown:
			downs++
		case engine.LinkDown:
			cuts++
		}
	}
	lag := (liveMonitor + liveMonitor/2 + liveQuantum).Seconds()
	// A partition demotes the engine's primary instantly but the live
	// controller only after the stale heartbeat ages past HeartbeatTimeout
	// (3 monitor intervals) plus a scan, so each cut may stall the live
	// pipeline for one detection window.
	cutLag := (3*liveMonitor + liveMonitor + liveQuantum).Seconds()
	tol := 0.03*em.SinkTotal + float64(downs)*lag*maxRate + float64(cuts)*cutLag*maxRate + 10
	return &DiffResult{
		Scenario:       sc,
		Schedule:       sched,
		EngineSink:     em.SinkTotal,
		LiveSink:       float64(liveSink),
		Tolerance:      tol,
		LivePrimaries:  primaries,
		LiveMigrations: migrations,
		FloorErr:       floorErr,
	}, nil
}

// pipelineSystem builds the differential-test application: a three-stage
// identity pipeline with unit selectivities, two replicas per PE spread
// anti-affine over two hosts, all replicas active in both configurations.
func pipelineSystem(duration float64) (*System, []core.ComponentID, error) {
	b := core.NewBuilder("chaos-diff-pipeline")
	src := b.AddSource("src")
	p1 := b.AddPE("stage1")
	p2 := b.AddPE("stage2")
	p3 := b.AddPE("stage3")
	sink := b.AddSink("sink")
	b.Connect(src, p1, 1, 1e6)
	b.Connect(p1, p2, 1, 1e6)
	b.Connect(p2, p3, 1, 1e6)
	b.Connect(p3, sink, 0, 0)
	app, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	d := &core.Descriptor{
		App: app,
		Configs: []core.InputConfig{
			{Name: "Low", Rates: []float64{10}, Prob: 2.0 / 3},
			{Name: "High", Rates: []float64{20}, Prob: 1.0 / 3},
		},
		HostCapacity:  1e9,
		BillingPeriod: duration,
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	asg := core.NewAssignment(3, 2, 2)
	for pe := 0; pe < 3; pe++ {
		for k := 0; k < 2; k++ {
			asg.Host[pe][k] = k
		}
	}
	sys := &System{
		Desc:     d,
		Rates:    core.NewRates(d),
		Asg:      asg,
		Strat:    core.AllActive(2, 3, 2),
		LowCfg:   0,
		HighCfg:  1,
		ICTarget: 1,
		// One rack per host: a domain-crash schedule degrades to single-host
		// crashes both legs can realise identically.
		Domains:     core.UniformDomains(2, 1, 1),
		DomainLevel: core.LevelRack,
	}
	return sys, []core.ComponentID{src, p1, p2, p3, sink}, nil
}

// runLiveLeg drives the live runtime through the schedule on a fake clock:
// per quantum it applies the due failure events, pushes the trace's tuple
// quota (credit accumulation, so rates are exact over time), and advances
// fake time. A drain phase lets in-flight tuples reach the sink before the
// counts are read. With staged set, configuration switches run through the
// two-wave IC-safe migration protocol (strategy fixed — the solver stays
// off so both legs drive the same activation patterns).
func runLiveLeg(sys *System, ids []core.ComponentID, sched *Schedule, duration float64, staged bool) (sunk int64, primaries []int, migrations []live.MigrationRecord, err error) {
	cfg := live.Config{
		// The engine leg has no replica-side fail-safe for data-plane
		// partitions, so the live leg must not unfence stale primaries
		// past the horizon either — the legs would diverge under long
		// host↔controller cuts.
		FailSafeHorizon: -1,
	}
	if staged {
		cfg.Resolve = &live.ResolveConfig{StageOnly: true}
	}
	rt, fc, net, err := newLive(sys, sched, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	var delivered atomic.Int64
	rt.OnSink(func(core.ComponentID, live.Tuple) { delivered.Add(1) })
	if err := rt.Start(); err != nil {
		return 0, nil, nil, err
	}

	peID := sys.Desc.App.PEs() // dense PE index → component ID
	dt := liveQuantum.Seconds()
	steps := int(duration/dt + 0.5)
	downCount := make(map[[2]int]int)
	evIdx := 0
	credit := 0.0
	for i := 0; i < steps; i++ {
		t := float64(i) * dt
		for evIdx < len(sched.Events) && sched.Events[evIdx].Time < t+dt {
			applyLiveEvent(rt, net, sys, peID, sched.Events[evIdx], downCount)
			evIdx++
		}
		credit += sys.Desc.Configs[sched.Trace.ConfigAt(t)].Rates[0] * dt
		for ; credit >= 1; credit-- {
			if err := rt.Push(ids[0], i); err != nil {
				return 0, nil, nil, err
			}
		}
		// Yield real time so the replica goroutines drain their queues
		// before the fake clock moves on; without this the driver loop can
		// starve the runtime on a single-P scheduler and every queue
		// overflows.
		time.Sleep(20 * time.Microsecond)
		fc.Advance(liveQuantum)
	}
	// Drain: a few fake seconds with no input, plus real-time yields, so
	// queued tuples finish the pipeline and the controller settles.
	for i := 0; i < 30; i++ {
		fc.Advance(liveQuantum)
		time.Sleep(100 * time.Microsecond)
	}
	for pe := 0; pe < sys.Asg.NumPEs(); pe++ {
		primaries = append(primaries, rt.Primary(peID[pe]))
	}
	if _, err := rt.Stop(); err != nil {
		return 0, nil, nil, err
	}
	return delivered.Load(), primaries, rt.MigrationHistory(), nil
}

// diffableEvents filters a schedule down to the kinds both legs can
// realise identically: gray slowdowns act on the engine's CPU model only,
// and controller crashes have timing semantics (failover delay versus lease
// expiry) the two control planes model differently, so both are dropped
// before a differential run.
func diffableEvents(events []engine.FailureEvent) []engine.FailureEvent {
	out := events[:0]
	for _, ev := range events {
		switch ev.Kind {
		case engine.HostSlow, engine.HostNormal, engine.ControllerCrash, engine.ControllerRecover:
			continue
		}
		out = append(out, ev)
	}
	return out
}

// applyLiveEvent maps one engine failure event onto the live runtime. Crash
// events fan out per replica (the live runtime has no host-crash
// abstraction; a per-replica down counter keeps overlapping host and
// replica failures from recovering a replica early); link events translate
// directly onto the injected NetFault transport — engine.CtrlHost and
// live.ControllerHost share the -1 sentinel.
func applyLiveEvent(rt *live.Runtime, net *live.NetFault, sys *System, peID []core.ComponentID, ev engine.FailureEvent, down map[[2]int]int) {
	bump := func(pe, k, delta int) {
		key := [2]int{pe, k}
		was := down[key]
		down[key] = was + delta
		switch {
		case was == 0 && down[key] > 0:
			rt.KillReplica(peID[pe], k)
		case was > 0 && down[key] == 0:
			rt.RecoverReplica(peID[pe], k)
		}
	}
	switch ev.Kind {
	case engine.ReplicaDown:
		bump(ev.PE, ev.Replica, +1)
	case engine.ReplicaUp:
		bump(ev.PE, ev.Replica, -1)
	case engine.HostDown:
		for _, pr := range sys.Asg.ReplicasOn(ev.Host) {
			bump(pr[0], pr[1], +1)
		}
	case engine.HostUp:
		for _, pr := range sys.Asg.ReplicasOn(ev.Host) {
			bump(pr[0], pr[1], -1)
		}
	case engine.DomainCrash:
		for _, h := range sys.Domains.HostsIn(ev.Level, ev.Host) {
			for _, pr := range sys.Asg.ReplicasOn(h) {
				bump(pr[0], pr[1], +1)
			}
		}
	case engine.DomainRecover:
		for _, h := range sys.Domains.HostsIn(ev.Level, ev.Host) {
			for _, pr := range sys.Asg.ReplicasOn(h) {
				bump(pr[0], pr[1], -1)
			}
		}
	case engine.LinkDown:
		net.Cut(ev.Host, ev.HostB)
	case engine.LinkUp:
		net.Heal(ev.Host, ev.HostB)
	case engine.ControllerCrash:
		rt.KillController(ev.Host)
	case engine.ControllerRecover:
		rt.RecoverController(ev.Host)
	}
}
