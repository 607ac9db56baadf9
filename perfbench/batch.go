package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"laar/internal/appgen"
	"laar/internal/core"
	"laar/internal/engine"
	"laar/internal/ftsearch"
	"laar/internal/strategy"
	"laar/internal/trace"
)

// plan-and-simulate sizing: a corpus of small appgen applications, each
// solved cold at three IC targets under a fixed node budget, re-solved
// warm over seeded rate shifts, and simulated under every variant and
// failure scenario; plus one sharded HugeCell run.
const (
	batchApps       = 24
	batchPEs        = 10
	batchHosts      = 4
	batchNodeBudget = 300_000
	batchShifts     = 4
	batchSimSeconds = 150
	batchSetups     = 21
	hugePEs         = 4000
	hugeSimSeconds  = 8
	corpusSeed      = 20140324
)

var batchICs = []float64{0.5, 0.6, 0.7}

// variant names one simulated strategy of an application.
type variant struct {
	name  string
	strat *core.Strategy
	res   *ftsearch.Result // the solve that produced it; nil for baselines
}

// scenario is one failure scenario of Figs. 9–11.
type scenario int

const (
	bestCase scenario = iota
	worstCase
	hostCrash
)

// corpus is the generated input of one batch.
type corpus struct {
	apps []*appgen.Generated
	// shifts[app] are the seeded rate shifts of the app's warm sweep.
	shifts    [][]ftsearch.Shift
	crashHost []int
	simSeed   int64 // engine seed of the first simulation cell
	huge      *appgen.Generated
}

// genCorpus generates the batch input. The applications and their rate
// shifts are the same for every seed, so that batch times compare across
// seeds: which solves finish exhaustively moves the batch time, and which
// shifts a warm re-solve meets moves its tail, far more than run-to-run
// noise does (with seed-drawn shifts adapt_tail_ms differed by 2× between
// seeds). The seed draws the crashed host of every application and the
// engine's random streams.
func genCorpus(seed int64) (*corpus, error) {
	apps := rand.New(rand.NewSource(corpusSeed))
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{}
	for len(c.apps) < batchApps {
		g, err := appgen.Generate(appgen.Params{NumPEs: batchPEs, NumHosts: batchHosts, Seed: apps.Int63()})
		if err != nil {
			return nil, err
		}
		var sh []ftsearch.Shift
		for i := 0; i < batchShifts; i++ {
			sh = append(sh, ftsearch.Shift{Cfg: apps.Intn(g.Desc.NumConfigs()), Scale: 0.9 + 0.2*apps.Float64()})
		}
		c.crashHost = append(c.crashHost, rng.Intn(g.Assignment.NumHosts))
		c.apps = append(c.apps, g)
		c.shifts = append(c.shifts, sh)
	}
	c.simSeed = rng.Int63()
	h, err := appgen.HugeCell(appgen.HugeCellParams{NumPEs: hugePEs})
	if err != nil {
		return nil, err
	}
	c.huge = h
	return c, nil
}

// batchStats is what one batch measured. Every batch of a run does the
// same work, so the timing slices are indexed by call or cell, the same
// index naming the same work in every batch; an entry is -1 when its call
// failed.
type batchStats struct {
	wallS                  float64
	cells, failed          int64
	cellMs                 []float64 // every cell: solve stage, simulation stage, HugeCell
	solveMs                []float64 // cold solves, app × IC target
	resolveMs              []float64 // warm re-solves, app × shift
	coldNodes              int64
	warmNodes, coldRefNode int64
	outcomes               map[ftsearch.Outcome]int64
	prunes                 [4]int64
	simMs, newMs, runMs    []float64 // simulation cells: whole cell, engine.New, Run
	simKind                []scenario
	sinkTotal, sinkExpect  float64 // best-case cells
	sinkAll, simS          float64
	allocPerCell           float64
	checkErr               error
}

// timings returns n entries of -1, the mark of a call that did not run.
func timings(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = -1
	}
	return xs
}

// typicalOf returns, for every index of get's slices, the median time
// the run's batches measured, over the batches where the call ran; -1
// where it failed in every batch. The shared machine slows one call at
// random by up to half its time, differently in every batch; a call's
// median over the run's batches is its time with that noise averaged out,
// and quantiles over calls are then taken over those medians.
func typicalOf(runs []*batchStats, get func(*batchStats) []float64) []float64 {
	out := make([]float64, len(get(runs[0])))
	xs := make([]float64, 0, len(runs))
	for i := range out {
		xs = xs[:0]
		for _, bs := range runs {
			if v := get(bs)[i]; v >= 0 {
				xs = append(xs, v)
			}
		}
		out[i] = -1
		if len(xs) > 0 {
			out[i] = median(xs)
		}
	}
	return out
}

// ran returns the times of xs whose calls ran, those of the given
// simulation scenarios when kinds is not nil.
func ran(xs []float64, kinds []scenario, keep ...scenario) []float64 {
	var out []float64
	for i, v := range xs {
		if v < 0 {
			continue
		}
		if kinds != nil && !slices.Contains(keep, kinds[i]) {
			continue
		}
		out = append(out, v)
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// work fans fns out over GOMAXPROCS workers.
func work(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// cellSpan times one cell and the layer call inside it.
type cellSpan struct {
	tr    *tracer
	id    uint64
	cell  int64
	start int64
}

func startCell(tr *tracer, cell int64) cellSpan {
	if !tr.active() {
		return cellSpan{}
	}
	return cellSpan{tr: tr, id: tr.newID(), cell: cell, start: tr.now()}
}

// call runs one call into a layer, as a child span of the cell.
func (c cellSpan) call(layer, name string, fn func()) time.Duration {
	t0 := time.Now()
	var start int64
	if c.tr != nil {
		start = c.tr.now()
	}
	fn()
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.record(layer, name, "cell", c.cell, start, c.tr.now(), c.id, 1)
	}
	return d
}

func (c cellSpan) end() {
	if c.tr != nil {
		c.tr.recordID(c.id, layerBench, "cell", "cell", c.cell, c.start, c.tr.now(), 0, 1)
	}
}

// checkSolve is the plan check of one solve: the strategy validates, its
// recomputed IC and cost match the result, and it meets the IC target.
func checkSolve(r *core.Rates, res *ftsearch.Result, target float64) error {
	s := res.Strategy
	if s == nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("solved strategy invalid: %w", err)
	}
	ic, cost := core.IC(r, s, core.Pessimistic{}), core.Cost(r, s)
	if math.Abs(ic-res.IC) > 1e-9 || math.Abs(cost-res.Cost) > 1e-9*math.Max(1, math.Abs(cost)) {
		return fmt.Errorf("solver reported IC %.9f cost %.6g, strategy has IC %.9f cost %.6g", res.IC, res.Cost, ic, cost)
	}
	if ic < target-1e-9 {
		return fmt.Errorf("solved strategy IC %.6f below target %.2f", ic, target)
	}
	return nil
}

// worstICTolerance absorbs the fluid engine's start-up and end-of-trace
// edges when measured IC is compared with the model bound, as the
// experiments package does.
const worstICTolerance = 0.02

// runOneBatch solves, re-solves and simulates the corpus once.
func runOneBatch(c *corpus, tr *tracer, shards int) *batchStats {
	bs := &batchStats{outcomes: make(map[ftsearch.Outcome]int64)}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		bs.failed++
		if bs.checkErr == nil {
			bs.checkErr = err
		}
	}
	check := func(err error) {
		if err != nil {
			mu.Lock()
			if bs.checkErr == nil {
				bs.checkErr = err
			}
			mu.Unlock()
		}
	}
	wall0 := time.Now()
	nApps := len(c.apps)
	solved := make([][]*ftsearch.Result, nApps)
	for i := range solved {
		solved[i] = make([]*ftsearch.Result, len(batchICs))
	}
	// Stage 1: cold solves at every IC target, and one warm sweep per app.
	nSolve := nApps * (len(batchICs) + 1)
	stage1 := timings(nSolve)
	bs.solveMs = timings(nApps * len(batchICs))
	bs.resolveMs = timings(nApps * batchShifts)
	work(nSolve, func(i int) {
		app, j := i/(len(batchICs)+1), i%(len(batchICs)+1)
		g := c.apps[app]
		cs := startCell(tr, int64(i))
		defer cs.end()
		t0 := time.Now()
		defer func() { stage1[i] = float64(time.Since(t0)) / 1e6 }()
		if j < len(batchICs) {
			var res *ftsearch.Result
			var err error
			d := cs.call(layerFTSearch, "Solve", func() {
				res, err = ftsearch.Solve(g.Rates, g.Assignment, ftsearch.Options{ICMin: batchICs[j], NodeBudget: batchNodeBudget})
			})
			if err != nil {
				fail(fmt.Errorf("solve app %d IC %.1f: %w", app, batchICs[j], err))
				return
			}
			check(checkSolve(g.Rates, res, batchICs[j]))
			mu.Lock()
			solved[app][j] = res
			bs.solveMs[app*len(batchICs)+j] = float64(d) / 1e6
			bs.coldNodes += res.Stats.Nodes
			bs.outcomes[res.Outcome]++
			for p := range bs.prunes {
				bs.prunes[p] += res.Stats.Prunes[p]
			}
			mu.Unlock()
			return
		}
		// The warm sweep: a retained solver re-solved over the app's
		// shifts, each against a cold solve of the same shifted instance.
		opts := ftsearch.SolverConfig{Opts: ftsearch.Options{ICMin: 0.6, NodeBudget: batchNodeBudget}}
		sv, err := ftsearch.NewSolver(g.Rates, g.Assignment, opts)
		if err != nil {
			fail(fmt.Errorf("new solver app %d: %w", app, err))
			return
		}
		cs.call(layerFTSearch, "Solve", func() { _, err = sv.Solve() })
		if err != nil {
			fail(fmt.Errorf("warm base solve app %d: %w", app, err))
			return
		}
		scales := make([]float64, g.Desc.NumConfigs())
		for k := range scales {
			scales[k] = 1
		}
		for k, sh := range c.shifts[app] {
			scales[sh.Cfg] = sh.Scale
			var warm, cold *ftsearch.Result
			d := cs.call(layerFTSearch, "Resolve", func() { warm, err = sv.Resolve(sh) })
			if err != nil {
				fail(fmt.Errorf("resolve app %d: %w", app, err))
				return
			}
			ref, err := ftsearch.NewSolver(g.Rates, g.Assignment, opts)
			if err != nil {
				fail(fmt.Errorf("reference solver app %d: %w", app, err))
				return
			}
			all := make([]ftsearch.Shift, len(scales))
			for k, s := range scales {
				all[k] = ftsearch.Shift{Cfg: k, Scale: s}
			}
			cs.call(layerFTSearch, "Resolve", func() { cold, err = ref.Resolve(all...) })
			if err != nil {
				fail(fmt.Errorf("cold reference app %d: %w", app, err))
				return
			}
			mu.Lock()
			bs.resolveMs[app*batchShifts+k] = float64(d) / 1e6
			bs.warmNodes += warm.Stats.Nodes
			bs.coldRefNode += cold.Stats.Nodes
			mu.Unlock()
		}
	})
	// Stage 2: simulate every solved strategy and the baselines under the
	// best-case, worst-case and host-crash scenarios.
	type simCell struct {
		app int
		v   variant
		sc  scenario
	}
	var cells []simCell
	traces := make([]*trace.Trace, nApps)
	for app, g := range c.apps {
		tr, err := trace.Alternating(batchSimSeconds, 45, 1.0/3.0, g.LowCfg, g.HighCfg)
		if err != nil {
			fail(err)
			continue
		}
		traces[app] = tr
		vs := []variant{{name: "SR", strat: strategy.Static(g.Desc, core.DefaultReplication)}}
		for j, res := range solved[app] {
			if res != nil && res.Strategy != nil {
				vs = append(vs, variant{name: fmt.Sprintf("L%.1f", batchICs[j]), strat: res.Strategy, res: res})
			}
		}
		if res := solved[app][0]; res != nil && res.Strategy != nil {
			vs = append(vs, variant{name: "NR", strat: strategy.NonReplicated(res.Strategy, g.HighCfg)})
		}
		if grd, err := strategy.Greedy(g.Rates, g.Assignment); err == nil {
			vs = append(vs, variant{name: "GRD", strat: grd})
		}
		for _, v := range vs {
			for sc := bestCase; sc <= hostCrash; sc++ {
				cells = append(cells, simCell{app: app, v: v, sc: sc})
			}
		}
	}
	metrics := make([]*engine.Metrics, len(cells))
	bs.simMs, bs.newMs, bs.runMs = timings(len(cells)), timings(len(cells)), timings(len(cells))
	bs.simKind = make([]scenario, len(cells))
	for i, cl := range cells {
		bs.simKind[i] = cl.sc
	}
	m0 := readMem()
	work(len(cells), func(i int) {
		cl := cells[i]
		g := c.apps[cl.app]
		cs := startCell(tr, int64(nSolve+i))
		defer cs.end()
		var sim *engine.Simulation
		var err error
		t0 := time.Now()
		dNew := cs.call(layerEngine, "New", func() {
			sim, err = engine.New(g.Desc, g.Assignment, cl.v.strat, traces[cl.app], engine.Config{Seed: c.simSeed + int64(i)})
		})
		if err != nil {
			fail(fmt.Errorf("engine.New: %w", err))
			return
		}
		defer sim.Close()
		switch cl.sc {
		case worstCase:
			err = sim.InjectAll(engine.WorstCasePlan(g.Rates, cl.v.strat))
		case hostCrash:
			var plan []engine.FailureEvent
			if plan, err = engine.HostCrashPlan(g.Assignment.NumHosts, c.crashHost[cl.app], batchSimSeconds/3+2, 16); err == nil {
				err = sim.InjectAll(plan)
			}
		}
		if err != nil {
			fail(fmt.Errorf("inject faults: %w", err))
			return
		}
		var m *engine.Metrics
		dRun := cs.call(layerEngine, "Run", func() { m, err = sim.Run() })
		if err != nil {
			fail(fmt.Errorf("engine Run: %w", err))
			return
		}
		ms := float64(time.Since(t0)) / 1e6
		metrics[i] = m
		bs.simMs[i], bs.newMs[i], bs.runMs[i] = ms, float64(dNew)/1e6, float64(dRun)/1e6
		mu.Lock()
		defer mu.Unlock()
		bs.simS += m.Duration
		bs.sinkAll += m.SinkTotal
		if cl.sc == bestCase {
			bs.sinkTotal += m.SinkTotal
			for _, seg := range traces[cl.app].Segments() {
				for _, sink := range g.Desc.App.Sinks() {
					bs.sinkExpect += (seg.End - seg.Start) * g.Rates.Rate(sink, seg.Config)
				}
			}
		}
	})
	m1 := readMem()
	bs.cells = int64(nSolve + len(cells))
	bs.allocPerCell = (m1.alloc - m0.alloc) / float64(len(cells))
	// The worst-case IC check: measured IC (worst-case processed over the
	// NR best case) is at least the solver's bound.
	ref := make(map[int]float64)
	for i, cl := range cells {
		if cl.v.name == "NR" && cl.sc == bestCase && metrics[i] != nil {
			ref[cl.app] = metrics[i].ProcessedTotal
		}
	}
	for i, cl := range cells {
		if cl.v.res == nil || cl.sc != worstCase || metrics[i] == nil || ref[cl.app] == 0 {
			continue
		}
		if ic := metrics[i].ProcessedTotal / ref[cl.app]; ic < cl.v.res.IC-worstICTolerance {
			check(fmt.Errorf("app %d %s: measured worst-case IC %.4f below the solver bound %.4f", cl.app, cl.v.name, ic, cl.v.res.IC))
		}
	}
	// Stage 3: one sharded HugeCell run.
	huge := -1.0
	hs, err := runHuge(c.huge, tr, int64(bs.cells), shards)
	if err != nil {
		fail(err)
	} else {
		huge = 1e3 * hs
	}
	bs.cells++
	bs.cellMs = append(append(stage1, bs.simMs...), huge)
	bs.wallS = time.Since(wall0).Seconds()
	return bs
}

// runHuge simulates the HugeCell corpus at the given shard count and
// returns the Run wall time in seconds.
func runHuge(h *appgen.Generated, tr *tracer, cell int64, shards int) (float64, error) {
	cs := startCell(tr, cell)
	defer cs.end()
	tt, err := trace.Alternating(hugeSimSeconds, 6, 1.0/3.0, h.LowCfg, h.HighCfg)
	if err != nil {
		return 0, err
	}
	strat := core.AllActive(h.Desc.NumConfigs(), h.Desc.App.NumPEs(), h.Assignment.K)
	var sim *engine.Simulation
	cs.call(layerEngine, "New", func() { sim, err = engine.New(h.Desc, h.Assignment, strat, tt, engine.Config{Shards: shards}) })
	if err != nil {
		return 0, fmt.Errorf("HugeCell engine.New: %w", err)
	}
	defer sim.Close()
	d := cs.call(layerEngine, "Run", func() { _, err = sim.Run() })
	if err != nil {
		return 0, fmt.Errorf("HugeCell Run: %w", err)
	}
	return d.Seconds(), nil
}

// runBatch is the plan-and-simulate workload: the batch, repeated for the
// run's seconds, every call read at its median over the repetitions and
// batch_s the sum of the cells' times. The live metrics are read on the
// batch's own units: a tuple is a simulated tuple, a latency is a
// simulation cell's time, a failover is a host-crash cell and an
// adaptation is a warm re-solve.
func runBatch(ctx *runCtx) (*outcome, error) {
	o := newOutcome()
	var c *corpus
	var gens []float64
	for i := 0; i < batchSetups; i++ {
		t0 := time.Now()
		var err error
		if c, err = genCorpus(ctx.seed); err != nil {
			return nil, err
		}
		gens = append(gens, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = median(gens)
	o.metrics["setup.generate_ms"] = 1e3 * median(append([]float64(nil), gens...))
	o.metrics["setup.initial_solve_ms"] = 0
	o.metrics["setup.runtime_new_ms"] = 0
	until := time.Now().Add(time.Duration(ctx.seconds * float64(time.Second)))
	var runs []*batchStats
	cal := newCalibrator()
	for len(runs) < 2 || time.Now().Before(until) {
		cal.pass()
		cal.pass()
		bs := runOneBatch(c, ctx.tr, runtime.GOMAXPROCS(0))
		runs = append(runs, bs)
		o.attempted += bs.cells
		o.failed += bs.failed
		o.fail(bs.checkErr)
	}
	// Every call's time is its median over the run's batches (typicalOf),
	// and every quantile and sum is taken over those times.
	last := runs[len(runs)-1]
	cellMs := ran(typicalOf(runs, func(b *batchStats) []float64 { return b.cellMs }), nil)
	sim := typicalOf(runs, func(b *batchStats) []float64 { return b.simMs })
	simMs := ran(sim, nil)
	latMs := ran(sim, last.simKind, bestCase, worstCase)
	crashMs := ran(sim, last.simKind, hostCrash)
	runMs := ran(typicalOf(runs, func(b *batchStats) []float64 { return b.runMs }), nil)
	newMs := ran(typicalOf(runs, func(b *batchStats) []float64 { return b.newMs }), nil)
	resolveMs := ran(typicalOf(runs, func(b *batchStats) []float64 { return b.resolveMs }), nil)
	solveMs := ran(typicalOf(runs, func(b *batchStats) []float64 { return b.solveMs }), nil)
	var walls []float64
	for _, b := range runs {
		walls = append(walls, b.wallS)
	}
	o.metrics["batch_s"] = sum(cellMs) / 1e3
	o.metrics["cpu_us_per_tuple"] = 1e3 * sum(simMs) / last.sinkAll
	o.metrics["saturation_tuples_per_s"] = 1e3 * last.sinkAll / sum(runMs)
	o.metrics["delivered_frac"] = last.sinkTotal / last.sinkExpect
	o.metrics["latency_p50_ms"] = median(latMs)
	o.metrics["latency_p99_ms"] = quantile(latMs, 0.99)
	o.metrics["failover_p50_ms"] = median(crashMs)
	failTail, failPct := tail(crashMs)
	o.metrics["failover_tail_ms"] = failTail
	o.metrics["adapt_p50_ms"] = median(resolveMs)
	adaptTail, adaptPct := tail(resolveMs)
	o.metrics["adapt_tail_ms"] = adaptTail
	// The end-to-end times at the reference speed (calib.go).
	k := cal.scale()
	var raw []string
	for _, name := range []string{"batch_s", "cpu_us_per_tuple", "saturation_tuples_per_s", "latency_p50_ms", "latency_p99_ms",
		"failover_p50_ms", "failover_tail_ms", "adapt_p50_ms", "adapt_tail_ms"} {
		raw = append(raw, fmt.Sprintf("%s=%.6g", name, o.metrics[name]))
		if name == "saturation_tuples_per_s" {
			o.metrics[name] /= k
		} else {
			o.metrics[name] *= k
		}
	}
	o.note("batch: times scaled by %.4f to the reference speed (calibration pass median %.5f s over %d passes); raw: %s",
		k, calRefS/k, len(cal.passes), strings.Join(raw, " "))
	o.note("batch: %d batches of %d cells; every time is a call's median over the batches; batch wall time median %.3f s, fastest %.3f s",
		len(runs), last.cells, median(walls), quantile(walls, 0))
	o.note("batch: adapt_tail_ms = p%.0f of %d warm re-solves, failover_tail_ms = p%.0f of %d host-crash cells, latency over %d cells",
		adaptPct, len(resolveMs), failPct, len(crashMs), len(latMs))

	o.metrics["ftsearch.solve_ms_p50"] = median(solveMs)
	solveTail, solvePct := tail(solveMs)
	o.metrics["ftsearch.solve_ms_tail"] = solveTail
	o.note("batch: ftsearch.solve_ms_tail = p%.0f of %d cold solves", solvePct, len(solveMs))
	o.metrics["ftsearch.nodes_per_s"] = 1e3 * float64(last.coldNodes) / sum(solveMs)
	o.metrics["ftsearch.nodes"] = float64(last.coldNodes)
	for _, oc := range []ftsearch.Outcome{ftsearch.Optimal, ftsearch.Feasible, ftsearch.Infeasible, ftsearch.Timeout} {
		o.metrics["ftsearch.outcome_"+oc.String()] = float64(last.outcomes[oc])
	}
	var prunes int64
	for _, n := range last.prunes {
		prunes += n
	}
	for p, n := range last.prunes {
		o.metrics["ftsearch.prune_share_"+ftsearch.Pruning(p).String()] = float64(n) / math.Max(1, float64(prunes))
	}
	o.metrics["ftsearch.resolve_ms_p50"] = median(resolveMs)
	o.metrics["ftsearch.warm_node_ratio"] = float64(last.warmNodes) / math.Max(1, float64(last.coldRefNode))
	o.metrics["engine.new_ms_p50"] = median(newMs)
	o.metrics["engine.sim_s_per_wall_s"] = 1e3 * last.simS / sum(runMs)
	o.metrics["engine.alloc_bytes_per_cell"] = last.allocPerCell
	hugeMs := ran(typicalOf(runs, func(b *batchStats) []float64 { return b.cellMs[len(b.cellMs)-1:] }), nil)
	if len(hugeMs) == 1 {
		h := c.huge
		ticks := float64(hugeSimSeconds) / 0.1
		o.metrics["engine.tick_entity_ns"] = hugeMs[0] * 1e6 / ticks / float64(h.Desc.App.NumPEs()*h.Assignment.K)
	}
	o.note("batch: outcomes BST %d SOL %d NUL %d TMO %d, %d cold nodes", last.outcomes[ftsearch.Optimal], last.outcomes[ftsearch.Feasible],
		last.outcomes[ftsearch.Infeasible], last.outcomes[ftsearch.Timeout], last.coldNodes)
	o.note("batch: call times: solving %.3f s, re-solving %.3f s, simulating %.3f s, HugeCell %.3f s",
		sum(solveMs)/1e3, sum(resolveMs)/1e3, sum(simMs)/1e3, sum(hugeMs)/1e3)
	return o, nil
}
