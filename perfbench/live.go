package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"laar/internal/core"
	"laar/internal/live"
)

// clock is the shared time origin of one live phase: generator due times,
// sink arrivals, kills and polls are all nanoseconds since t0.
type clock struct{ t0 time.Time }

func newClock() *clock { return &clock{t0: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

// sleepUntil sleeps until the clock reads at, if it does not yet.
func (c *clock) sleepUntil(at int64) {
	if d := at - c.now(); d > 0 {
		pause(time.Duration(d))
	}
}

// pause sleeps for d. It calls nanosleep directly: the Go timer wakes a
// sleeper about a millisecond late on Linux, which would batch the
// generator's pushes into 1 ms bursts, while nanosleep overshoots by tens
// of microseconds.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// EINTR only shortens the sleep; every caller re-reads the clock.
	_ = syscall.Nanosleep(&ts, nil)
}

// delivery is one sink callback: a copy of the item, when it arrived and
// where. It holds no pointers, so the garbage collector never scans the
// log, however long it grows.
type delivery struct {
	it   item
	at   int64
	sink core.ComponentID
}

// sinkLog records every delivered tuple into a preallocated slice, so the
// callback neither allocates nor locks.
type sinkLog struct {
	recs []delivery
	n    atomic.Int64
	clk  *clock
	tr   *tracer
}

func (s *sinkLog) onSink(sink core.ComponentID, t live.Tuple) {
	it := t.Data.(*item)
	traced := s.tr.sampleTuple(it.seq)
	var start int64
	if traced {
		start = s.tr.now()
	}
	at := s.clk.now()
	if i := s.n.Add(1) - 1; i < int64(len(s.recs)) {
		s.recs[i] = delivery{it: *it, at: at, sink: sink}
	}
	if traced {
		s.tr.record(layerLive, "sink", "tuple", it.seq, start, s.tr.now(), 0, s.tr.stride)
	}
}

// delivered returns the recorded deliveries, or an error when more
// arrived than the log could hold.
func (s *sinkLog) delivered() ([]delivery, error) {
	n := s.n.Load()
	if n > int64(len(s.recs)) {
		return nil, fmt.Errorf("sink log holds %d deliveries, %d arrived", len(s.recs), n)
	}
	return s.recs[:n], nil
}

// liveRun is one started runtime with the benchmark's operators and sink
// log around it.
type liveRun struct {
	a    *liveApp
	rt   *live.Runtime
	clk  *clock
	tr   *tracer
	log  *sinkLog
	acts [][]*activity // nil unless activity is tracked
	seq  int64         // next source sequence number
	seed int64
}

// runOpts sets what a phase's runtime records.
type runOpts struct {
	logCap        int  // deliveries the sink log can hold
	trackActivity bool // operators publish when they process
}

// startLive builds and starts a runtime for one phase.
func startLive(a *liveApp, strat *core.Strategy, cfg live.Config, seed int64, tr *tracer, o runOpts) (*liveRun, error) {
	lr := &liveRun{a: a, clk: newClock(), tr: tr, seed: seed}
	lr.log = &sinkLog{recs: make([]delivery, o.logCap), clk: lr.clk, tr: tr}
	// Touch every page of the log now, so the resident set it adds does not
	// grow through the phase: the peak then moves with the program's heap
	// alone, not with where its collections fall against the log's growth.
	for i := 0; i < len(lr.log.recs); i += 64 {
		lr.log.recs[i].at = -1
	}
	if o.trackActivity {
		// A replica counts as idle after five expected inter-arrival gaps
		// of its slowest input at the Low rate.
		in := a.peOut(a.rateLow, false)
		lr.acts = make([][]*activity, len(a.peComp))
		for pe := range lr.acts {
			var rate float64
			for _, e := range a.in[pe] {
				rate += in[e.from]
			}
			gap := int64(5e9 / math.Max(rate, 1))
			if gap < int64(2*time.Millisecond) {
				gap = int64(2 * time.Millisecond)
			}
			lr.acts[pe] = make([]*activity, a.asg.K)
			for k := range lr.acts[pe] {
				lr.acts[pe][k] = &activity{gapNs: gap}
			}
		}
	}
	factory := func(pe core.ComponentID, k int) live.Operator {
		pi := a.d.App.PEIndex(pe)
		op := &synthOp{a: a, pe: pi, acc: make([]int, len(a.in[pi])), tr: tr, clk: lr.clk}
		if lr.acts != nil {
			op.act = lr.acts[pi][k]
		}
		return op
	}
	rt, err := live.New(a.d, a.asg, strat, factory, cfg)
	if err != nil {
		return nil, fmt.Errorf("live.New: %w", err)
	}
	rt.OnSink(lr.log.onSink)
	if err := rt.Start(); err != nil {
		return nil, fmt.Errorf("live.Start: %w", err)
	}
	lr.rt = rt
	return lr, nil
}

// push hands one generated tuple to the runtime.
func (lr *liveRun) push(due int64) error {
	seq := lr.seq
	lr.seq++
	it := &item{seq: seq, due: due, val: sourceVal(lr.seed, seq)}
	if lr.tr.sampleTuple(seq) {
		start := lr.tr.now()
		err := lr.rt.Push(lr.a.src, it)
		lr.tr.record(layerLive, "Push", "tuple", seq, start, lr.tr.now(), 0, lr.tr.stride)
		return err
	}
	return lr.rt.Push(lr.a.src, it)
}

// segment is one stretch of an open-loop schedule at a fixed rate.
type segment struct {
	start, end int64 // ns since the phase clock origin
	rate       float64
	cfg        int
}

// genQuantum is the generator's tolerance: an open-loop phase whose
// generator ran more than this behind schedule is invalid, not scored. It
// is the Rate Monitor's period: a generator further behind than that
// offers the monitor other rates than the schedule's. On a shared 2-vCPU
// machine the median push ran up to 1.3 ms late while a neighbour held
// the cores, which a tighter tolerance would have scored as invalid.
const genQuantum = monitorInterval

// openLoop pushes tuples on the schedule, each stamped with the time it
// was due, regardless of how fast the runtime drains them. It returns how
// late every push was, in ns.
func (lr *liveRun) openLoop(segs []segment) ([]int64, error) {
	var late []int64
	for _, sg := range segs {
		step := 1e9 / sg.rate
		for j := 0; ; j++ {
			due := sg.start + int64(float64(j)*step)
			if due >= sg.end {
				break
			}
			lr.clk.sleepUntil(due)
			late = append(late, lr.clk.now()-due)
			if err := lr.push(due); err != nil {
				return late, err
			}
		}
	}
	return late, nil
}

// checkGenerator reports an open-loop phase invalid when its generator
// fell behind by more than its quantum: the median push of the phase, or
// of its last tenth, was later than that. A median ignores a stall the
// generator recovered from; the last tenth catches a backlog that grew.
func checkGenerator(late []int64) (p99ms float64, err error) {
	xs := nsToMs(late)
	tailXs := append([]float64(nil), xs[len(xs)-len(xs)/10-1:]...)
	p50, p50End := quantile(xs, 0.5), quantile(tailXs, 0.5)
	p99ms = quantile(xs, 0.99)
	q := float64(genQuantum) / 1e6
	if p50 > q || p50End > q {
		return p99ms, fmt.Errorf("generator fell behind: median lateness %.3f ms, %.3f ms over the last tenth, quantum %.3f ms", p50, p50End, q)
	}
	return p99ms, nil
}

// drain waits until the sink has received want tuples, or until no tuple
// arrived for quiet, and returns how many arrived.
func (lr *liveRun) drain(want int64, quiet time.Duration) int64 {
	last, lastAt := lr.log.n.Load(), time.Now()
	for {
		n := lr.log.n.Load()
		if n >= want {
			return n
		}
		if n != last {
			last, lastAt = n, time.Now()
		} else if time.Since(lastAt) > quiet {
			return n
		}
		pause(100 * time.Microsecond)
	}
}

// closedBatches runs a closed loop with a fixed in-flight window, like a
// flow-controlled upstream: a source tuple is pushed only while fewer than
// window source tuples' worth of sink output is outstanding. It runs
// batches of batch source tuples until the deadline and returns every
// completed batch's wall time in seconds and sink tuples delivered.
func (lr *liveRun) closedBatches(window, batch int64, until time.Time) (secs []float64, sinkPerBatch []int64, err error) {
	amp := lr.a.ampSink
	for len(secs) == 0 || time.Now().Before(until) {
		start := time.Now()
		base := lr.log.n.Load()
		end := lr.seq + batch
		for lr.seq < end {
			out := float64(lr.seq)*amp - float64(lr.log.n.Load())
			if out >= float64(window)*amp {
				// A Go sleep wakes about a millisecond later; the window
				// holds several milliseconds of work, so the runtime never
				// runs dry while the generator sleeps.
				time.Sleep(time.Millisecond)
				continue
			}
			if err := lr.push(lr.clk.now()); err != nil {
				return nil, nil, err
			}
		}
		want := lr.a.expectedSink(lr.seq)
		if got := lr.drain(want, 2*time.Second); got != want {
			return nil, nil, fmt.Errorf("closed loop: %d of %d sink tuples arrived", got, want)
		}
		secs = append(secs, time.Since(start).Seconds())
		sinkPerBatch = append(sinkPerBatch, want-base)
	}
	return secs, sinkPerBatch, nil
}

// stop stops the runtime and returns its statistics.
func (lr *liveRun) stop() (*live.Stats, error) {
	st, err := lr.rt.Stop()
	if err != nil {
		return nil, fmt.Errorf("live.Stop: %w", err)
	}
	return st, nil
}

// usefulFrac is the share of replica processings whose output a primary
// forwarded: PE-level inputs over all replica-processed tuples.
func (lr *liveRun) usefulFrac(st *live.Stats) float64 {
	out := lr.a.peOut(float64(lr.seq), true)
	var useful, all float64
	for pe := range lr.a.peComp {
		for _, e := range lr.a.in[pe] {
			useful += out[e.from]
		}
		for _, n := range st.Processed[pe] {
			all += float64(n)
		}
	}
	if all == 0 {
		return 0
	}
	return useful / all
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// latencyWindow is the width of the windows latency quantiles are taken
// over.
const latencyWindow = int64(100 * time.Millisecond)

// latencyWindows groups deliveries into windows of their due time and
// returns, in ms, each window's p50 and p99 latency. A workload reports
// the median over windows of the p50s and the lower quartile over windows
// of the p99s. On a shared two-vCPU machine a window's p99 is set by
// whether the hypervisor took a vCPU away inside it: the whole-phase p99
// of one seed ranged from 0.3 to 2 ms between runs. The lower quartile
// reads the windows without such a stall, and a slower data path raises
// those too.
func latencyWindows(ds []delivery, start, end int64) (p50s, p99s []float64) {
	n := int((end - start) / latencyWindow)
	if n < 1 {
		n = 1
	}
	byWin := make([][]float64, n)
	for _, d := range ds {
		if w := int((d.it.due - start) / latencyWindow); w >= 0 && w < n {
			byWin[w] = append(byWin[w], float64(d.at-d.it.due)/1e6)
		}
	}
	for _, xs := range byWin {
		p50s = append(p50s, quantile(xs, 0.5))
		p99s = append(p99s, quantile(xs, 0.99))
	}
	return p50s, p99s
}

// checkPayloads checks that every delivered payload was pushed and was
// transformed as the operators define.
func checkPayloads(a *liveApp, seed, pushed int64, ds []delivery) error {
	for _, d := range ds {
		if d.it.seq < 0 || d.it.seq >= pushed {
			return fmt.Errorf("delivered tuple %d was never pushed (%d pushed)", d.it.seq, pushed)
		}
		if err := a.verifyItem(seed, d.sink, &d.it); err != nil {
			return err
		}
	}
	return nil
}

// duplicates counts the deliveries that repeat an earlier one: the same
// source tuple down the same path.
func duplicates(ds []delivery) int {
	type key struct {
		seq  int64
		path uint64
	}
	keys := make([]key, len(ds))
	for i, d := range ds {
		keys[i] = key{d.it.seq, d.it.path}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seq != keys[j].seq {
			return keys[i].seq < keys[j].seq
		}
		return keys[i].path < keys[j].path
	})
	n := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			n++
		}
	}
	return n
}

// checkDeliveries is the steady-stream output check: every delivered
// payload was pushed, was transformed as the operators define, and was
// delivered once; and no more tuples arrived than δ lets the pushed ones
// produce.
func checkDeliveries(a *liveApp, seed, pushed int64, ds []delivery) error {
	if err := checkPayloads(a, seed, pushed, ds); err != nil {
		return err
	}
	if n := duplicates(ds); n > 0 {
		return fmt.Errorf("%d tuples delivered twice", n)
	}
	if want := a.expectedSink(pushed); int64(len(ds)) > want {
		return fmt.Errorf("%d tuples delivered, δ allows %d", len(ds), want)
	}
	return nil
}

// checkPatterns is the load-spike migration check: every staged
// migration's mid pattern keeps the IC of the weaker endpoint under both
// of its configurations.
func checkPatterns(r *core.Rates, hist []live.MigrationRecord) error {
	for i, m := range hist {
		for _, cfg := range []int{m.FromCfg, m.ToCfg} {
			mid := core.ConfigPatternIC(r, cfg, m.Mid)
			floor := math.Min(core.ConfigPatternIC(r, cfg, m.Old), core.ConfigPatternIC(r, cfg, m.New))
			if mid < floor-1e-12 {
				return fmt.Errorf("migration %d (%d→%d): IC(Mid)=%.6f below min(IC(Old), IC(New))=%.6f in configuration %d",
					i, m.FromCfg, m.ToCfg, mid, floor, cfg)
			}
		}
	}
	return nil
}

// checkPrimaries fails when a PE shows more than one observable primary.
func checkPrimaries(obs [][]int) error {
	for pe, ps := range obs {
		if len(ps) > 1 {
			return fmt.Errorf("pe%d has %d observable primaries %v after settling", pe, len(ps), ps)
		}
	}
	return nil
}

// waitGroup runs fns concurrently and returns the first error.
func runAll(fns ...func() error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(fns))
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
