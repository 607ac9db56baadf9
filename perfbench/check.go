package main

import (
	"errors"
	"fmt"
	"time"

	"laar/internal/core"
	"laar/internal/ftsearch"
	"laar/internal/live"
)

// selfTest feeds every correctness check a valid output, which it must
// accept, and corrupted outputs, each of which it must reject. A check
// that accepts a corrupted output would let a broken program score.
func selfTest() error {
	a, err := buildLiveApp(appParams{numPEs: 5, numHosts: 3, seed: 11, ratioMin: 1.8, ratioMax: 2.0, rateLow: 1000, spinPerSec: 1e3})
	if err != nil {
		return fmt.Errorf("self-test application: %w", err)
	}
	const seed, pushed = 5, 200
	ds := referenceRun(a, seed, pushed)
	if err := checkDeliveries(a, seed, pushed, ds); err != nil {
		return fmt.Errorf("delivery check rejects a correct output: %w", err)
	}
	corrupt := map[string]func([]delivery) []delivery{
		"duplicate": func(d []delivery) []delivery { return append(d, d[len(d)/2]) },
		"wrong value": func(d []delivery) []delivery {
			d[0].it.val++
			return d
		},
		"never pushed": func(d []delivery) []delivery {
			d[1].it.seq = pushed
			return d
		},
		"no such edge": func(d []delivery) []delivery {
			d[2].it.path = d[2].it.path*a.base + uint64(2*len(a.peComp)-1)
			return d
		},
		"more than δ allows": func(d []delivery) []delivery {
			return append(d, extraDelivery(a, seed, d))
		},
	}
	for name, fn := range corrupt {
		bad := fn(append([]delivery(nil), ds...))
		if checkDeliveries(a, seed, pushed, bad) == nil {
			return fmt.Errorf("delivery check accepts a corrupted output (%s)", name)
		}
	}

	// New drops one replica of the last PE; the bad mid pattern also drops
	// one of the first PE, whose loss the pessimistic model charges to every
	// PE downstream, so its IC falls below both endpoints'.
	full := core.AllActive(a.d.NumConfigs(), len(a.peComp), a.asg.K)
	all, one, dark := patternOf(full, a.high), patternOf(full, a.high), patternOf(full, a.high)
	one[len(one)-1][1] = false
	dark[len(dark)-1][1], dark[0][1] = false, false
	good := live.MigrationRecord{FromCfg: a.low, ToCfg: a.high, Old: all, Mid: all, New: one}
	if err := checkPatterns(a.r, []live.MigrationRecord{good}); err != nil {
		return fmt.Errorf("migration check rejects a correct record: %w", err)
	}
	bad := good
	bad.Mid = dark
	if checkPatterns(a.r, []live.MigrationRecord{bad}) == nil {
		return errors.New("migration check accepts a mid pattern below the IC floor")
	}
	if err := checkPrimaries([][]int{{0}, {1}, nil}); err != nil {
		return fmt.Errorf("primary check rejects a correct view: %w", err)
	}
	if checkPrimaries([][]int{{0}, {0, 1}}) == nil {
		return errors.New("primary check accepts two primaries of one PE")
	}

	res, err := ftsearch.Solve(a.r, a.asg, ftsearch.Options{ICMin: 0.5})
	if err != nil || res.Strategy == nil {
		return fmt.Errorf("self-test solve: %v", err)
	}
	if err := checkSolve(a.r, res, 0.5); err != nil {
		return fmt.Errorf("solve check rejects a correct result: %w", err)
	}
	wrongIC := *res
	wrongIC.IC += 0.05
	wrongCost := *res
	wrongCost.Cost *= 1.01
	invalid := *res
	invalid.Strategy = res.Strategy.Clone()
	for k := 0; k < a.asg.K; k++ {
		invalid.Strategy.Set(a.high, 0, k, false)
	}
	for name, r := range map[string]*ftsearch.Result{"IC": &wrongIC, "cost": &wrongCost, "invalid strategy": &invalid} {
		if checkSolve(a.r, r, 0.5) == nil {
			return fmt.Errorf("solve check accepts a corrupted result (%s)", name)
		}
	}
	if checkSolve(a.r, res, res.IC+0.01) == nil {
		return errors.New("solve check accepts a strategy below its IC target")
	}
	if checkWorstIC(res.IC, res.IC) != nil || checkWorstIC(res.IC-2*worstICTolerance, res.IC) == nil {
		return errors.New("worst-case IC check does not compare measured IC with the bound")
	}

	if _, err := checkGenerator([]int64{0, 1000, 2000}); err != nil {
		return fmt.Errorf("generator check rejects an on-time generator: %w", err)
	}
	lag := int64(2 * genQuantum)
	if _, err := checkGenerator([]int64{0, lag, lag, lag}); err == nil {
		return errors.New("generator check accepts a generator that fell behind")
	}
	ok := []segment{{rate: 0.5 * a.rateLow, cfg: a.low}, {rate: (a.rateLow + a.rateHigh) / 2, cfg: a.high}}
	if err := checkRates(a, ok); err != nil {
		return fmt.Errorf("rate check rejects rates inside their configurations: %w", err)
	}
	for _, sg := range []segment{{rate: a.rateLow, cfg: a.low}, {rate: a.rateHigh, cfg: a.high}, {rate: 0.9 * a.rateLow, cfg: a.high}} {
		if checkRates(a, []segment{sg}) == nil {
			return fmt.Errorf("rate check accepts rate %.1f for configuration %d", sg.rate, sg.cfg)
		}
	}
	return nil
}

// checkWorstIC is the plan check of one worst-case simulation: the IC it
// measured is at least the solver's bound, within worstICTolerance.
func checkWorstIC(measured, bound float64) error {
	if measured < bound-worstICTolerance {
		return fmt.Errorf("measured worst-case IC %.4f below the solver bound %.4f", measured, bound)
	}
	return nil
}

// referenceRun is a single-threaded reference of the application: the
// synthetic operators applied in topological order to pushed source
// tuples, with every output routed to every successor.
func referenceRun(a *liveApp, seed int64, pushed int) []delivery {
	app := a.d.App
	ops := make([]*synthOp, len(a.peComp))
	for pe := range ops {
		ops[pe] = &synthOp{a: a, pe: pe, acc: make([]int, len(a.in[pe])), clk: newClock()}
	}
	var ds []delivery
	for seq := 0; seq < pushed; seq++ {
		type hop struct {
			from core.ComponentID
			it   *item
		}
		queue := []hop{{a.src, &item{seq: int64(seq), due: int64(seq) * int64(time.Millisecond), val: sourceVal(seed, int64(seq))}}}
		for len(queue) > 0 {
			h := queue[0]
			queue = queue[1:]
			for _, e := range app.Out(h.from) {
				if app.Component(e.To).Kind == core.KindSink {
					ds = append(ds, delivery{it: *h.it, sink: e.To})
					continue
				}
				pe := app.PEIndex(e.To)
				for _, out := range ops[pe].Process(live.Tuple{From: h.from, Data: h.it}) {
					queue = append(queue, hop{e.To, out.(*item)})
				}
			}
		}
	}
	return ds
}

// extraDelivery fabricates a well-formed delivery no correct run makes: a
// sink-bound item whose last hop took a copy index the counters never
// emitted for it.
func extraDelivery(a *liveApp, seed int64, ds []delivery) delivery {
	seen := make(map[[2]uint64]bool)
	for _, d := range ds {
		seen[[2]uint64{uint64(d.it.seq), d.it.path}] = true
	}
	for _, d := range ds {
		pes, copies := a.pathHops(d.it.path)
		copies[len(copies)-1] ^= 1
		var path uint64
		val := sourceVal(seed, d.it.seq)
		for i, pe := range pes {
			path = path*a.base + uint64(2*pe+copies[i]+1)
			val = mix(val, pe, copies[i])
		}
		if !seen[[2]uint64{uint64(d.it.seq), path}] {
			return delivery{it: item{seq: d.it.seq, path: path, val: val}, sink: d.sink}
		}
	}
	return ds[0]
}
