package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"laar/internal/core"
	"laar/internal/ftsearch"
	"laar/internal/live"
	"laar/internal/strategy"
)

// Workload sizing. Rates are absolute tuples/s, fixed so that runs on one
// machine compare; spin counts are fixed work, not timed waits.
const (
	// steady-stream: an 8-PE application under static full replication.
	// The open loop runs at about a third of the closed-loop saturation of
	// a 2-core Xeon, inside the Low configuration. At half, the median
	// latency of 250 ms windows swung between 0.2 and 1.1 ms within a run.
	// Phases take 45 %, 20 % and 35 % of the run.
	steadyOpenRate = 8000.0
	steadyRateLow  = 10000.0
	steadyPEs      = 8
	steadySpin     = 0.19e9 // spins/s at the Low rate, all replicas
	steadyWindow   = 128    // closed-loop in-flight source tuples
	steadyBatch    = 6000   // source tuples per closed-loop batch
	steadySetups   = 101

	// load-spike: a 6-PE application solved by FT-Search at spikeIC, with
	// three controllers and warm re-solves on every switch.
	spikeRateLow = 5000.0
	spikePEs     = 6
	spikeSpin    = 0.3e9
	spikeIC      = 0.6
	spikeWindow  = 64
	spikeBatch   = 3000
	spikeSetups  = 101

	monitorInterval = 10 * time.Millisecond
	queueLen        = 4096
)

// liveAppSeed is the appgen seed of the live workloads' applications. The
// application is the same for every run seed, so that rates and costs
// compare across seeds; the seed draws the payloads, the Low/High
// schedule and the faults.
const liveAppSeed = 20140324

// spikeAppSeed is the first appgen seed from liveAppSeed on whose 6-PE
// application admits a strategy at spikeIC; the one before is infeasible.
const spikeAppSeed = liveAppSeed + 1

// setupTimes are one workload's repeated set-up timings, in seconds.
type setupTimes struct{ total, gen, solve, start []float64 }

func (s *setupTimes) report(o *outcome) {
	o.metrics["setup_s"] = median(s.total)
	o.metrics["setup.generate_ms"] = 1e3 * median(s.gen)
	o.metrics["setup.initial_solve_ms"] = 1e3 * median(s.solve)
	o.metrics["setup.runtime_new_ms"] = 1e3 * median(s.start)
}

// liveSetup builds the application, its strategy and a started runtime
// reps times, timing each step, and returns the last application and
// strategy. solve is nil for static full replication.
func liveSetup(p appParams, solve func(*liveApp) (*core.Strategy, error), cfg live.Config, reps int) (*liveApp, *core.Strategy, *setupTimes, error) {
	st := &setupTimes{}
	var a *liveApp
	var strat *core.Strategy
	for i := 0; i < reps; i++ {
		// Each set-up starts from a collected heap, not from the garbage of
		// the one before.
		runtime.GC()
		t0 := time.Now()
		var err error
		a, err = buildLiveApp(p)
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		if solve == nil {
			strat = strategy.Static(a.d, a.asg.K)
		} else if strat, err = solve(a); err != nil {
			return nil, nil, nil, err
		}
		t2 := time.Now()
		lr, err := startLive(a, strat, cfg, 0, nil, runOpts{})
		if err != nil {
			return nil, nil, nil, err
		}
		t3 := time.Now()
		if _, err := lr.stop(); err != nil {
			return nil, nil, nil, err
		}
		st.total = append(st.total, t3.Sub(t0).Seconds())
		st.gen = append(st.gen, t1.Sub(t0).Seconds())
		st.solve = append(st.solve, t2.Sub(t1).Seconds())
		st.start = append(st.start, t3.Sub(t2).Seconds())
	}
	return a, strat, st, nil
}

// memSnap is a point-in-time reading of the Go runtime's allocation and
// GC CPU counters.
type memSnap struct{ alloc, gcCPU, totalCPU float64 }

func readMem() memSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return memSnap{alloc: v(0), gcCPU: v(1), totalCPU: v(2)}
}

// liveLayer fills the live per-layer metrics of one measured phase, whose
// spans start at index spansFrom.
func liveLayer(o *outcome, ctx *runCtx, lr *liveRun, st *live.Stats, m0, m1 memSnap, cpuS float64, delivered, spansFrom int) {
	o.metrics["live.alloc_bytes_per_tuple"] = (m1.alloc - m0.alloc) / float64(delivered)
	if dt := m1.totalCPU - m0.totalCPU; dt > 0 {
		o.metrics["live.gc_cpu_frac"] = (m1.gcCPU - m0.gcCPU) / dt
	}
	o.metrics["live.queue_drops_per_ktuple"] = 1e3 * float64(st.Dropped) / float64(lr.seq)
	o.metrics["live.useful_process_frac"] = lr.usefulFrac(st)
	if !ctx.traced {
		return
	}
	spans := ctx.tr.snapshot()[spansFrom:]
	push, _ := spanDurations(spans, "Push")
	o.metrics["live.push_ns_p50"] = median(push)
	_, procS := spanDurations(spans, "Process")
	if cpuS > 0 {
		o.metrics["live.operator_busy_frac"] = procS / cpuS
	}
	o.metrics["live.overhead_us_per_tuple"] = 1e6 * (cpuS - procS) / float64(delivered)
}

// startPhase starts a measured phase's runtime and collects the heap, so
// that every phase's collections, and with them its peak heap, fall at the
// same points of its allocations.
func startPhase(a *liveApp, strat *core.Strategy, cfg live.Config, ctx *runCtx, o runOpts) (*liveRun, error) {
	lr, err := startLive(a, strat, cfg, ctx.seed, ctx.tr, o)
	runtime.GC()
	return lr, err
}

// liveRounds is how many times a live workload runs its sequence of
// phases. The shared machine slows for seconds at a time; phases that
// take turns through the whole run meet all of its stretches, and every
// metric is taken over the samples of all rounds.
const liveRounds = 3

// warmUp is how long a phase's runtime runs before its load starts: the
// leader takes its lease and installs its first pattern.
const warmUp = int64(200 * time.Millisecond)

// livePool gathers what the rounds of a live workload measured.
type livePool struct {
	p50s, p99s                  []float64 // per latency window of the open loops
	openCPU                     float64
	openDelivered, openWant     int64
	batchSecs, batchRates       []float64 // closed-loop batches
	es                          eventStats
	shifts                      int
	eventsCPU                   float64
	eventsDelivered, eventsWant int64
	switches, sent, acked       int64
	resolveNodes                int64
	lateMs                      float64 // highest p99 generator lateness of a scored phase
}

// report sets the end-to-end and control-plane metrics from every round.
// CPU per tuple and delivery are read on the open loops, or on the events
// phases with eventsTuples set.
func (p *livePool) report(o *outcome, eventsTuples bool) {
	o.metrics["latency_p50_ms"] = median(p.p50s)
	o.metrics["latency_p99_ms"] = quantile(p.p99s, 0.25)
	cpu, delivered, want := p.openCPU, p.openDelivered, p.openWant
	if eventsTuples {
		cpu, delivered, want = p.eventsCPU, p.eventsDelivered, p.eventsWant
	}
	o.metrics["cpu_us_per_tuple"] = 1e6 * cpu / float64(delivered)
	o.metrics["delivered_frac"] = float64(delivered) / float64(want)
	o.metrics["bench.generator_late_ms"] = p.lateMs
	o.metrics["batch_s"] = median(p.batchSecs)
	o.metrics["saturation_tuples_per_s"] = median(p.batchRates)
	o.note("closed loop: %d batches, fastest %.4f s", len(p.batchSecs), quantile(p.batchSecs, 0))
	es := p.es
	adaptTail, adaptPct := tail(append([]float64(nil), es.adapt...))
	failTail, failPct := tail(append([]float64(nil), es.failover...))
	o.metrics["adapt_p50_ms"] = median(es.adapt)
	o.metrics["adapt_tail_ms"] = adaptTail
	o.metrics["failover_p50_ms"] = median(es.failover)
	o.metrics["failover_tail_ms"] = failTail
	o.note("events: adapt_tail_ms = p%.0f of %d shifts (%d unresolved), failover_tail_ms = p%.0f of %d counted crashes",
		adaptPct, len(es.adapt), es.unresolvedShifts, failPct, len(es.failover))
	shifts := float64(p.shifts)
	o.metrics["controlplane.detect_p50_ms"] = median(es.detect)
	o.metrics["controlplane.install_p50_ms"] = median(es.install)
	o.metrics["controlplane.elect_p50_ms"] = median(es.elect)
	o.metrics["controlplane.leader_handover_ms"] = median(es.handover)
	o.metrics["controlplane.switches_per_shift"] = float64(p.switches) / shifts
	o.metrics["controlplane.commands_per_shift"] = float64(p.sent) / shifts
	if p.sent > 0 {
		o.metrics["controlplane.acked_frac"] = float64(p.acked) / float64(p.sent)
	}
	o.metrics["ftsearch.live_resolve_nodes_per_shift"] = float64(p.resolveNodes) / shifts
}

// openPhase runs an open loop at one fixed rate inside the Low
// configuration, every tuple stamped with its due time, and checks every
// delivered payload. With once set it also checks that each was delivered
// once and that no more arrived than δ allows: a runtime with one
// controller promises that. With several controllers a lease change lets
// two replicas of a PE forward for up to one lease window, so there the
// duplicates are counted, not failed.
func openPhase(ctx *runCtx, o *outcome, p *livePool, a *liveApp, strat *core.Strategy, cfg live.Config, rate float64, dur time.Duration, once bool) error {
	logCap := int(rate*dur.Seconds()*a.ampSink*1.2) + 4096
	lr, err := startPhase(a, strat, cfg, ctx, runOpts{logCap: logCap})
	if err != nil {
		return err
	}
	segs := []segment{{start: warmUp, end: warmUp + int64(dur), rate: rate, cfg: a.low}}
	if err := checkRates(a, segs); err != nil {
		return err
	}
	m0, cpu0, spansFrom := readMem(), cpuSeconds(), ctx.tr.count()
	late, genErr := lr.openLoop(segs)
	want := a.expectedSink(lr.seq)
	lr.drain(want, 500*time.Millisecond)
	cpuS, m1 := cpuSeconds()-cpu0, readMem()
	grants := len(lr.rt.LeaseHistory())
	st, err := lr.stop()
	if err != nil {
		return err
	}
	if genErr != nil {
		return genErr
	}
	ds, err := lr.log.delivered()
	if err != nil {
		return err
	}
	lateP99, err := checkGenerator(late)
	o.note("open loop: generator p99 lateness %.3f ms", lateP99)
	if err != nil {
		return fmt.Errorf("%w: open loop: %v", errInvalid, err)
	}
	dups := duplicates(ds)
	if once {
		p.lateMs = math.Max(p.lateMs, lateP99)
		o.fail(checkDeliveries(a, ctx.seed, lr.seq, ds))
		// Every sink tuple δ lets the pushed tuples produce is an
		// operation; one that never arrived failed.
		o.attempted += want
		if missing := want - int64(len(ds)); missing > 0 {
			o.failed += missing
		}
	} else {
		o.fail(checkPayloads(a, ctx.seed, lr.seq, ds))
		o.note("open loop: %d duplicate deliveries, %d lease grants", dups, grants)
		// With several controllers the operations are the pushes, as in
		// an events phase: sink tuples went missing there with no queue
		// drop, crash or lease change (6 of 76 740 and 34 of 25 577 in two
		// of twenty open loops), which the notes report.
		o.attempted += lr.seq
	}
	p50s, p99s := latencyWindows(ds, segs[0].start, segs[0].end)
	p.p50s, p.p99s = append(p.p50s, p50s...), append(p.p99s, p99s...)
	p.openCPU += cpuS
	p.openDelivered += int64(len(ds))
	p.openWant += want
	o.note("open loop: %d source tuples at %.0f/s, %d of %d sink tuples delivered (%.2f per source tuple), %d queue drops, %.2f CPUs busy",
		lr.seq, rate, len(ds), want, a.ampSink, st.Dropped, cpuS/dur.Seconds())
	liveLayer(o, ctx, lr, st, m0, m1, cpuS, len(ds), spansFrom)
	return nil
}

// closedPhase runs closed-loop batches on a fresh runtime for dur and
// adds each batch's wall time and delivered tuples per second to p.
func closedPhase(ctx *runCtx, o *outcome, p *livePool, a *liveApp, strat *core.Strategy, cfg live.Config, window, batch int64, dur time.Duration) error {
	lr, err := startPhase(a, strat, cfg, ctx, runOpts{})
	if err != nil {
		return err
	}
	secs, sinks, err := lr.closedBatches(window, batch, time.Now().Add(dur))
	st, stopErr := lr.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil && st != nil {
		err = fmt.Errorf("%w (%d queue drops, %d switches)", err, st.Dropped, st.ConfigSwitches)
	}
	if err != nil {
		return err
	}
	for i := range secs {
		p.batchSecs = append(p.batchSecs, secs[i])
		p.batchRates = append(p.batchRates, float64(sinks[i])/secs[i])
		o.attempted += sinks[i]
	}
	return nil
}

// eventsPhase runs a Low/High schedule with faults, drawn from rng, on a
// fresh runtime and adds its adaptation and failover latencies to p.
func eventsPhase(ctx *runCtx, o *outcome, p *livePool, rng *rand.Rand, a *liveApp, strat *core.Strategy, cfg live.Config, pp planParams, scoreTuples bool) error {
	pp.start = warmUp
	pl := buildPlan(rng, a, strat, pp)
	if err := checkRates(a, pl.segs); err != nil {
		return err
	}
	dur := float64(pl.segs[len(pl.segs)-1].end) / 1e9
	logCap := int(pp.highRate*dur*a.ampSink*1.2) + 4096
	lr, err := startPhase(a, strat, cfg, ctx, runOpts{logCap: logCap, trackActivity: true})
	if err != nil {
		return err
	}
	m0, spansFrom := readMem(), ctx.tr.count()
	res, runErr := lr.runEvents(pl)
	m1 := readMem()
	st, err := lr.stop()
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	lateP99, err := checkGenerator(res.late)
	o.note("events: generator p99 lateness %.3f ms", lateP99)
	if err != nil {
		return fmt.Errorf("%w: events: %v", errInvalid, err)
	}
	o.fail(res.settle)
	o.fail(checkPatterns(a.r, lr.rt.MigrationHistory()))
	es := analyse(a, res)
	want := a.expectedSink(res.pushed)
	if scoreTuples {
		p.lateMs = math.Max(p.lateMs, lateP99)
		p.eventsCPU += res.cpuS
		p.eventsDelivered += int64(len(res.ds))
		p.eventsWant += want
		liveLayer(o, ctx, lr, st, m0, m1, res.cpuS, len(res.ds), spansFrom)
	}
	// The operations of an events phase are its pushes, each of which
	// succeeded or the run ended with an error. The sink tuples the crashes
	// lost are what delivered_frac and the notes report: losing them is the
	// fault model at work, not a failed operation.
	o.attempted += res.pushed
	p.es.add(es)
	p.shifts += len(res.shifts)
	p.switches += st.ConfigSwitches
	p.resolveNodes += st.ResolveNodes
	for _, cs := range lr.rt.ControllerStats() {
		p.sent += cs.CommandsSent
		p.acked += cs.CommandsAcked
	}
	o.note("events: %d phases, %d faults, %d of %d sink tuples delivered, %.2f CPUs busy over %.1f s",
		len(pl.segs), len(res.crashes), len(res.ds), want, res.cpuS/res.wallS, res.wallS)
	return nil
}

func liveConfig(controllers int) live.Config {
	return live.Config{QueueLen: queueLen, MonitorInterval: monitorInterval, Controllers: controllers}
}

// closedConfig is the configuration of a closed-loop phase: the pattern
// of one configuration, held fixed. A closed loop's measured rate drops to
// zero between batches, which the Rate Monitor would read as a switch to
// Low, so the monitor period is longer than the phase.
func closedConfig(initial int) live.Config {
	return live.Config{QueueLen: queueLen, MonitorInterval: time.Hour, Controllers: 1, InitialConfig: initial}
}

// steadyParams sizes steady-stream's application. The open-loop rate sits
// inside the Low configuration.
var steadyParams = appParams{numPEs: steadyPEs, numHosts: 4, seed: liveAppSeed, ratioMin: 1.8, ratioMax: 2.0,
	rateLow: steadyRateLow, spinPerSec: steadySpin}

// runSteady is the steady-stream workload: the live data path at a
// steady rate (open loop), at saturation (closed loop), and under a short
// schedule of shifts and crashes that static replication absorbs without
// any re-solve. Each of liveRounds rounds gives the phases 45 %, 20 % and
// 35 % of its share of the run.
func runSteady(ctx *runCtx) (*outcome, error) {
	o := newOutcome()
	cfg := liveConfig(1)
	a, strat, st, err := liveSetup(steadyParams, nil, cfg, steadySetups)
	if err != nil {
		return nil, err
	}
	st.report(o)
	S := time.Duration(ctx.seconds * float64(time.Second) / liveRounds)
	rng := rand.New(rand.NewSource(ctx.seed ^ 0x5eed))
	p := &livePool{}
	for r := 0; r < liveRounds; r++ {
		if err := openPhase(ctx, o, p, a, strat, cfg, steadyOpenRate, S*45/100, true); err != nil {
			return nil, err
		}
		if err := closedPhase(ctx, o, p, a, strat, closedConfig(a.low), steadyWindow, steadyBatch, S/5); err != nil {
			return nil, err
		}
		pp := planParams{phases: int(S.Seconds() * 35 / 100 / 0.08), minLen: 60 * time.Millisecond, maxLen: 100 * time.Millisecond,
			lowRate: 0.5 * a.rateLow, highRate: 1.2 * a.rateLow}
		if err := eventsPhase(ctx, o, p, rng, a, strat, cfg, pp, false); err != nil {
			return nil, err
		}
	}
	p.report(o, false)
	return o, nil
}

// solveSpike is load-spike's initial strategy: FT-Search at spikeIC.
func solveSpike(a *liveApp) (*core.Strategy, error) {
	res, err := ftsearch.Solve(a.r, a.asg, ftsearch.Options{ICMin: spikeIC})
	if err != nil {
		return nil, fmt.Errorf("ftsearch.Solve: %w", err)
	}
	if res.Strategy == nil {
		return nil, fmt.Errorf("ftsearch.Solve: no strategy at IC %.2f (%v)", spikeIC, res.Outcome)
	}
	return res.Strategy, nil
}

// runSpike is the load-spike workload: an open loop in Low on the solved
// strategy for tuple latency; Low/High phases on a seeded schedule, with
// replica and leader crashes, warm re-solves and staged migrations on
// every switch; then the solved High pattern's closed-loop saturation.
// Latency is read in the quiet open loop: in the events phase it followed
// the hypervisor's stolen time, its p99 ranging 0.3–3.4 ms between runs
// of one seed.
func runSpike(ctx *runCtx) (*outcome, error) {
	o := newOutcome()
	cfg := liveConfig(3)
	cfg.Resolve = &live.ResolveConfig{ICMin: spikeIC}
	p := appParams{numPEs: spikePEs, numHosts: 3, seed: spikeAppSeed, ratioMin: 1.8, ratioMax: 2.0,
		rateLow: spikeRateLow, spinPerSec: spikeSpin}
	a, strat, st, err := liveSetup(p, solveSpike, cfg, spikeSetups)
	if err != nil {
		return nil, err
	}
	st.report(o)
	S := time.Duration(ctx.seconds * float64(time.Second) / liveRounds)
	rng := rand.New(rand.NewSource(ctx.seed ^ 0x5eed))
	lp := &livePool{}
	for r := 0; r < liveRounds; r++ {
		if err := openPhase(ctx, o, lp, a, strat, cfg, 0.6*a.rateLow, S*15/100, false); err != nil {
			return nil, err
		}
		pp := planParams{phases: int(S.Seconds() * 55 / 100 / 0.13), minLen: 100 * time.Millisecond, maxLen: 160 * time.Millisecond,
			lowRate: 0.6 * a.rateLow, highRate: (a.rateLow + a.rateHigh) / 2, leaderKillEvery: 4}
		if err := eventsPhase(ctx, o, lp, rng, a, strat, cfg, pp, true); err != nil {
			return nil, err
		}
		if err := closedPhase(ctx, o, lp, a, strat, closedConfig(a.high), spikeWindow, spikeBatch, S*25/100); err != nil {
			return nil, err
		}
	}
	lp.report(o, true)
	return o, nil
}

// gomaxprocs runs fn at the given GOMAXPROCS and restores the old value.
func gomaxprocs(n int, fn func() error) error {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	return fn()
}
