package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"laar/internal/core"
)

// faultKind enumerates the faults an events phase injects.
type faultKind int

const (
	killReplica faultKind = iota
	recoverReplica
	killLeader
	recoverController
)

// fault is one scheduled fault; crash pairs a kill with its recovery.
type fault struct {
	at    int64
	kind  faultKind
	pe    int
	crash int
}

// eventsPlan is a seeded open-loop schedule that alternates Low and High
// phases, with two fault pairs inside every phase.
type eventsPlan struct {
	segs   []segment
	faults []fault
}

// planParams shapes an events schedule.
type planParams struct {
	phases          int
	minLen, maxLen  time.Duration
	lowRate         float64 // tuples/s in Low phases
	highRate        float64 // tuples/s in High phases
	leaderKillEvery int     // every n-th phase kills the leader instead of a replica; 0 never
	start           int64
}

// buildPlan draws phase lengths, crashed PEs and fault offsets from rng.
// A phase's two faults start at 30–38 % and 62–70 % of it and are
// recovered a fifth of the phase later: after adaptation has settled and
// before the next shift, so each event is timed on its own. A crash hits a
// PE the strategy keeps fully replicated in the phase's configuration,
// where one exists, so that its failover is timed. In every
// leaderKillEvery-th phase the first fault kills the lease holder. Shift
// and kill times are placed by a phaser.
func buildPlan(rng *rand.Rand, a *liveApp, strat *core.Strategy, p planParams) eventsPlan {
	var pl eventsPlan
	ph := &phaser{u: rng.Float64()}
	t := p.start
	for i := 0; i < p.phases; i++ {
		span := int64(p.maxLen - p.minLen)
		l := int64(p.minLen) + rng.Int63n(span+1)
		sg := segment{start: t, end: ph.at(t + l), rate: p.lowRate, cfg: a.low}
		if i%2 == 1 {
			sg.rate, sg.cfg = p.highRate, a.high
		}
		pl.segs = append(pl.segs, sg)
		var full []int
		for pe := range a.peComp {
			if strat.NumActive(sg.cfg, pe) == a.asg.K {
				full = append(full, pe)
			}
		}
		first := -1
		for j, from := range []int64{30, 62} {
			id := 2*i + j
			kill := ph.at(t + l*(from+rng.Int63n(9))/100)
			back := kill + l/5
			if j == 0 && p.leaderKillEvery > 0 && i%p.leaderKillEvery == p.leaderKillEvery-1 {
				pl.faults = append(pl.faults, fault{at: kill, kind: killLeader, crash: id}, fault{at: back, kind: recoverController, crash: id})
				continue
			}
			pe := pickPE(rng, len(a.peComp), full, first)
			first = pe
			pl.faults = append(pl.faults, fault{at: kill, kind: killReplica, pe: pe, crash: id}, fault{at: back, kind: recoverReplica, pe: pe, crash: id})
		}
		t = sg.end
	}
	return pl
}

// phaser places event times in the Rate Monitor's and the elector's
// period. Both act once per monitorInterval, so how long a shift or a crash
// waits for them depends on where in the period it falls: with random
// times, a run's median adaptation and failover moved by a tenth between
// seeds on that luck alone. The phaser moves each time by less than half a
// period to the next offset of a golden-ratio sequence from a seeded
// start, which spreads the offsets evenly over the period in every run.
type phaser struct{ u float64 }

const golden = 0.6180339887498949

// at returns the time within half a period of t at the phaser's next
// offset in the period.
func (p *phaser) at(t int64) int64 {
	p.u = math.Mod(p.u+golden, 1)
	iv := int64(monitorInterval)
	at := t - t%iv + int64(p.u*float64(iv))
	if at < t-iv/2 {
		at += iv
	}
	if at >= t+iv/2 {
		at -= iv
	}
	return at
}

// pickPE draws a PE to crash: one of full where it has a PE other than
// avoid (the PE the phase already crashed, whose replicas are still
// rejoining), else any PE other than avoid.
func pickPE(rng *rand.Rand, numPEs int, full []int, avoid int) int {
	var from []int
	for _, pe := range full {
		if pe != avoid {
			from = append(from, pe)
		}
	}
	if len(from) == 0 {
		for pe := 0; pe < numPEs; pe++ {
			if pe != avoid {
				from = append(from, pe)
			}
		}
	}
	return from[rng.Intn(len(from))]
}

// checkRates is the generator-validity check of an events schedule: every
// phase's rate sits strictly inside its configuration's nominal rate, so
// the Rate Monitor has one right answer.
func checkRates(a *liveApp, segs []segment) error {
	for i, sg := range segs {
		ok := sg.rate > 0 && sg.rate < a.rateLow
		if sg.cfg == a.high {
			ok = sg.rate > a.rateLow && sg.rate < a.rateHigh
		}
		if !ok {
			return fmt.Errorf("phase %d rate %.1f/s is not strictly inside configuration %d (Low %.1f/s, High %.1f/s)",
				i, sg.rate, sg.cfg, a.rateLow, a.rateHigh)
		}
	}
	return nil
}

// crashRec is one executed fault.
type crashRec struct {
	kind    faultKind
	pe      int
	victim  int // replica index, or controller id for a leader kill
	at      int64
	back    int64 // when it was recovered
	counted bool  // another replica of the PE was active and alive
}

// sample is one poll of the runtime's public control-plane view.
type sample struct {
	t       int64
	applied int
	leader  int
	prims   []int8
}

// shiftRec is one rate shift and when the runtime caught up with it.
type shiftRec struct {
	at, detect, install int64 // 0 when not reached before the next shift
	to                  int
	// seen is when the poller saw the shift begin, and lastAtShift every
	// replica's last processing time then.
	seen        int64
	lastAtShift [][]int64
}

// eventsResult gathers what an events phase observed.
type eventsResult struct {
	late    []int64
	crashes []crashRec
	samples []sample
	shifts  []shiftRec
	settle  error
	pushed  int64
	ds      []delivery
	cpuS    float64
	wallS   float64
}

// pollInterval is the control-plane poller's period.
const pollInterval = time.Millisecond

// runEvents drives an events phase: the generator pushes the schedule, a
// fault injector kills and recovers, and a poller watches AppliedConfig,
// Strategy, Primary, Leader and the operators' activity.
func (lr *liveRun) runEvents(pl eventsPlan) (*eventsResult, error) {
	a := lr.a
	alive := make([][]atomic.Bool, len(a.peComp))
	for pe := range alive {
		alive[pe] = make([]atomic.Bool, a.asg.K)
		for k := range alive[pe] {
			alive[pe][k].Store(true)
		}
	}
	res := &eventsResult{}
	for i, sg := range pl.segs {
		if i > 0 {
			res.shifts = append(res.shifts, shiftRec{at: sg.start, to: sg.cfg})
		}
	}
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	cpu0, wall0 := cpuSeconds(), time.Now()

	go func() {
		defer close(pollDone)
		lr.poll(res, alive, stopPoll)
	}()
	err := runAll(
		func() error {
			late, err := lr.openLoop(pl.segs)
			res.late = late
			return err
		},
		func() error { return lr.injectFaults(pl.faults, alive, res) },
	)
	res.pushed = lr.seq
	want := a.expectedSink(lr.seq)
	lr.drain(want, 300*time.Millisecond)
	close(stopPoll)
	<-pollDone
	res.cpuS, res.wallS = cpuSeconds()-cpu0, time.Since(wall0).Seconds()
	if err != nil {
		return nil, err
	}
	ds, err := lr.log.delivered()
	if err != nil {
		return nil, err
	}
	res.ds = ds
	return res, nil
}

// injectFaults executes the schedule's faults at their times.
func (lr *liveRun) injectFaults(fs []fault, alive [][]atomic.Bool, res *eventsResult) error {
	rt, a := lr.rt, lr.a
	open := make(map[int]int) // crash id → index in res.crashes
	for _, f := range fs {
		lr.clk.sleepUntil(f.at)
		now := lr.clk.now()
		switch f.kind {
		case killReplica:
			comp := a.peComp[f.pe]
			victim := rt.Primary(comp)
			if victim < 0 {
				continue
			}
			strat, cfg := rt.Strategy(), rt.AppliedConfig()
			counted := false
			for k := 0; k < a.asg.K; k++ {
				if k != victim && alive[f.pe][k].Load() && strat.IsActive(cfg, f.pe, k) {
					counted = true
				}
			}
			alive[f.pe][victim].Store(false)
			if err := lr.traceCall(layerLive, "KillReplica", f.crash, func() error { return rt.KillReplica(comp, victim) }); err != nil {
				return err
			}
			open[f.crash] = len(res.crashes)
			res.crashes = append(res.crashes, crashRec{kind: killReplica, pe: f.pe, victim: victim, at: now, counted: counted})
		case recoverReplica:
			i, ok := open[f.crash]
			if !ok {
				continue
			}
			c := &res.crashes[i]
			if err := lr.traceCall(layerLive, "RecoverReplica", f.crash, func() error { return rt.RecoverReplica(a.peComp[c.pe], c.victim) }); err != nil {
				return err
			}
			alive[c.pe][c.victim].Store(true)
			c.back = lr.clk.now()
		case killLeader:
			id, _ := rt.Leader()
			if id < 0 {
				continue
			}
			if err := lr.traceCall(layerControlplane, "KillController", f.crash, func() error { return rt.KillController(id) }); err != nil {
				return err
			}
			open[f.crash] = len(res.crashes)
			res.crashes = append(res.crashes, crashRec{kind: killLeader, victim: id, at: now})
		case recoverController:
			i, ok := open[f.crash]
			if !ok {
				continue
			}
			c := &res.crashes[i]
			if err := lr.traceCall(layerControlplane, "RecoverController", f.crash, func() error { return rt.RecoverController(c.victim) }); err != nil {
				return err
			}
			c.back = lr.clk.now()
		}
	}
	return nil
}

// traceCall runs one fault injection, as a span of its crash when traced.
func (lr *liveRun) traceCall(layer, name string, crash int, fn func() error) error {
	if !lr.tr.active() {
		return fn()
	}
	start := lr.tr.now()
	err := fn()
	lr.tr.record(layer, name, "crash", int64(crash), start, lr.tr.now(), 0, 1)
	return err
}

// poll samples the runtime's public view every pollInterval and detects,
// for the current shift, when AppliedConfig flips to its configuration
// (detect) and when every alive replica's activity matches Strategy()
// there (install). At each install it checks ObservablePrimaries.
func (lr *liveRun) poll(res *eventsResult, alive [][]atomic.Bool, stop <-chan struct{}) {
	a, rt := lr.a, lr.rt
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	cur := -1
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var start int64
		if lr.tr.active() {
			start = lr.tr.now()
		}
		t := lr.clk.now()
		s := sample{t: t, applied: rt.AppliedConfig(), prims: make([]int8, len(a.peComp))}
		s.leader, _ = rt.Leader()
		for pe, comp := range a.peComp {
			s.prims[pe] = int8(rt.Primary(comp))
		}
		res.samples = append(res.samples, s)
		for cur+1 < len(res.shifts) && res.shifts[cur+1].at <= t {
			cur++
			sh := &res.shifts[cur]
			sh.seen = t
			sh.lastAtShift = make([][]int64, len(lr.acts))
			for pe, acts := range lr.acts {
				sh.lastAtShift[pe] = make([]int64, len(acts))
				for k, ac := range acts {
					sh.lastAtShift[pe][k] = ac.last.Load()
					// Marked when the poll sees the shift, at most one poll
					// after it: nothing changes before the monitor's next
					// window closes.
					ac.setMark(t)
				}
			}
		}
		if cur >= 0 {
			sh := &res.shifts[cur]
			if sh.detect == 0 && s.applied == sh.to {
				sh.detect = t
			}
			if sh.detect != 0 && sh.install == 0 {
				if at, ok := lr.installedAt(sh, alive, t); ok {
					sh.install = at
					if err := checkPrimaries(rt.ObservablePrimaries()); err != nil && res.settle == nil {
						res.settle = err
					}
				}
			}
		}
		if lr.tr.active() {
			lr.tr.record(layerControlplane, "poll", "shift", int64(cur+1), start, lr.tr.now(), 0, 1)
		}
	}
}

// installedAt reports whether every alive replica runs as the current
// strategy's pattern for the shift's configuration prescribes: a replica
// that should run has processed since the shift, and one that should not
// has been idle for its gap. If so it returns when that became true: the
// latest of the detection, the first processing of a replica that was idle
// at the shift and the last processing of one that ran at the shift.
func (lr *liveRun) installedAt(sh *shiftRec, alive [][]atomic.Bool, now int64) (int64, bool) {
	strat := lr.rt.Strategy()
	at := sh.detect
	for pe, acts := range lr.acts {
		for k, ac := range acts {
			if !alive[pe][k].Load() {
				continue
			}
			last, first := ac.last.Load(), ac.first.Load()
			ranAtShift := sh.seen-sh.lastAtShift[pe][k] <= ac.gapNs
			if strat.IsActive(sh.to, pe, k) {
				if first == 0 {
					return 0, false
				}
				if !ranAtShift && first > at {
					at = first
				}
				continue
			}
			if now-last <= ac.gapNs {
				return 0, false
			}
			if ranAtShift && last > at {
				at = last
			}
		}
	}
	return at, true
}

// eventStats are the event latencies an events phase yields, in ms.
type eventStats struct {
	adapt, detect, install    []float64
	failover, elect, handover []float64
	unresolvedShifts          int
}

// add appends the latencies of another events phase.
func (es *eventStats) add(o eventStats) {
	es.adapt = append(es.adapt, o.adapt...)
	es.detect = append(es.detect, o.detect...)
	es.install = append(es.install, o.install...)
	es.failover = append(es.failover, o.failover...)
	es.elect = append(es.elect, o.elect...)
	es.handover = append(es.handover, o.handover...)
	es.unresolvedShifts += o.unresolvedShifts
}

// analyse derives the event latencies from an events phase.
func analyse(a *liveApp, res *eventsResult) eventStats {
	var es eventStats
	for _, sh := range res.shifts {
		if sh.install == 0 {
			es.unresolvedShifts++
			continue
		}
		es.adapt = append(es.adapt, float64(sh.install-sh.at)/1e6)
		es.detect = append(es.detect, float64(sh.detect-sh.at)/1e6)
		es.install = append(es.install, float64(sh.install-sh.detect)/1e6)
	}
	for _, c := range res.crashes {
		switch c.kind {
		case killReplica:
			if c.counted {
				if ms, ok := failoverMs(a, res.ds, c); ok {
					es.failover = append(es.failover, ms)
				}
			}
			for _, s := range res.samples {
				if s.t < c.at {
					continue
				}
				p := int(s.prims[c.pe])
				if p >= 0 && (p != c.victim || (c.back != 0 && s.t >= c.back)) {
					es.elect = append(es.elect, float64(s.t-c.at)/1e6)
					break
				}
			}
		case killLeader:
			for _, s := range res.samples {
				if s.t >= c.at && s.leader >= 0 && s.leader != c.victim {
					es.handover = append(es.handover, float64(s.t-c.at)/1e6)
					break
				}
			}
		}
	}
	return es
}

// failoverMs is the time from a replica kill to the arrival of the first
// sink tuple that was due after the kill and passed through the crashed
// PE.
func failoverMs(a *liveApp, ds []delivery, c crashRec) (float64, bool) {
	for _, d := range ds {
		if d.at < c.at || d.it.due < c.at {
			continue
		}
		pes, _ := a.pathHops(d.it.path)
		for _, pe := range pes {
			if pe == c.pe {
				return float64(d.at-c.at) / 1e6, true
			}
		}
	}
	return 0, false
}

// patternOf is a strategy's activation pattern in one configuration.
func patternOf(s *core.Strategy, cfg int) [][]bool {
	out := make([][]bool, s.NumPEs())
	for pe := range out {
		out[pe] = make([]bool, s.K)
		for k := range out[pe] {
			out[pe][k] = s.IsActive(cfg, pe, k)
		}
	}
	return out
}
