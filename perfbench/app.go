package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"laar/internal/appgen"
	"laar/internal/core"
	"laar/internal/live"
)

// selDen is the denominator of the synthetic operators' integer
// selectivity counters: an input on an edge of selectivity δ adds
// round(δ·selDen) to the edge's counter, and every full selDen emits one
// output. Output counts are therefore exact functions of input counts.
const selDen = 64

// inEdge is one input edge of a synthetic PE: its δ as a counter step and
// its γ as a fixed spin count.
type inEdge struct {
	from core.ComponentID
	num  int
	spin int
}

// liveApp is an appgen application (§5.2 shape, one source, K=2) rescaled
// to absolute live tuple rates, with the integer parameters of its
// synthetic operators.
type liveApp struct {
	gen       *appgen.Generated
	d         *core.Descriptor
	r         *core.Rates
	asg       *core.Assignment
	low, high int
	src       core.ComponentID
	peComp    []core.ComponentID
	in        [][]inEdge // per PE (dense index)
	edgeIdx   [][]int    // per PE, per component id: index into in, -1 if none
	sinkOf    [][]bool   // per PE, per component id: PE feeds that sink
	base      uint64     // radix of the item path encoding
	ampSink   float64    // sink tuples per source tuple
	rateLow   float64    // nominal Low source rate, tuples/s
	rateHigh  float64    // nominal High source rate, tuples/s
}

// appParams sizes one live application.
type appParams struct {
	numPEs, numHosts   int
	seed               int64
	ratioMin, ratioMax float64
	// rateLow is the absolute nominal Low source rate in tuples/s; the
	// descriptor's rates are scaled to it and its costs scaled inversely,
	// so every host load, cost and IC the solver sees is unchanged.
	rateLow float64
	// spinPerSec is the spin iterations per second all replicas burn
	// together at the nominal Low rate; γ is converted to spins at that
	// ratio.
	spinPerSec float64
}

func buildLiveApp(p appParams) (*liveApp, error) {
	gen, err := appgen.Generate(appgen.Params{
		NumPEs:   p.numPEs,
		NumHosts: p.numHosts,
		RatioMin: p.ratioMin,
		RatioMax: p.ratioMax,
		Seed:     p.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate application: %w", err)
	}
	if gen.Desc.App.NumSources() != 1 {
		return nil, fmt.Errorf("application has %d sources, want 1", gen.Desc.App.NumSources())
	}
	old := gen.Desc
	f := p.rateLow / old.Configs[gen.LowCfg].Rates[0]
	b := core.NewBuilder(old.App.Name())
	for _, c := range old.App.Components() {
		switch c.Kind {
		case core.KindSource:
			b.AddSource(c.Name)
		case core.KindPE:
			b.AddPE(c.Name)
		case core.KindSink:
			b.AddSink(c.Name)
		}
	}
	for _, e := range old.App.Edges() {
		b.Connect(e.From, e.To, e.Selectivity, e.CostCycles/f)
	}
	app, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("rebuild application: %w", err)
	}
	d := &core.Descriptor{App: app, HostCapacity: old.HostCapacity, BillingPeriod: old.BillingPeriod}
	for _, c := range old.Configs {
		d.Configs = append(d.Configs, core.InputConfig{Name: c.Name, Rates: []float64{c.Rates[0] * f}, Prob: c.Prob})
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("rescaled descriptor: %w", err)
	}
	a := &liveApp{
		gen: gen, d: d, r: core.NewRates(d), asg: gen.Assignment,
		low: gen.LowCfg, high: gen.HighCfg,
		src:      app.Sources()[0],
		rateLow:  d.Configs[gen.LowCfg].Rates[0],
		rateHigh: d.Configs[gen.HighCfg].Rates[0],
	}
	n := app.NumPEs()
	a.base = uint64(2*n + 1)
	if math.Pow(float64(a.base), float64(n)) > math.MaxUint64 {
		return nil, fmt.Errorf("%d PEs are too many for the 64-bit path encoding", n)
	}
	var totalCycles float64
	for pe := 0; pe < n; pe++ {
		totalCycles += float64(a.asg.K) * a.r.UnitLoad(pe, a.low)
	}
	spinPerCycle := p.spinPerSec / totalCycles
	a.peComp = make([]core.ComponentID, n)
	a.in = make([][]inEdge, n)
	a.edgeIdx = make([][]int, n)
	a.sinkOf = make([][]bool, n)
	for _, id := range app.PEs() {
		pe := app.PEIndex(id)
		a.peComp[pe] = id
		a.edgeIdx[pe] = make([]int, app.NumComponents())
		a.sinkOf[pe] = make([]bool, app.NumComponents())
		for i := range a.edgeIdx[pe] {
			a.edgeIdx[pe][i] = -1
		}
		for _, e := range app.In(id) {
			a.edgeIdx[pe][e.From] = len(a.in[pe])
			a.in[pe] = append(a.in[pe], inEdge{
				from: e.From,
				num:  int(math.Round(e.Selectivity * selDen)),
				spin: int(math.Round(e.CostCycles * spinPerCycle)),
			})
		}
		for _, e := range app.Out(id) {
			if app.Component(e.To).Kind == core.KindSink {
				a.sinkOf[pe][e.To] = true
			}
		}
	}
	a.ampSink = a.sinkRatio()
	return a, nil
}

// peOut returns, per PE, its output count as a function of the source
// count under the integer counters: exact when exact is set (the floor of
// every counter), the asymptotic ratio otherwise.
func (a *liveApp) peOut(pushed float64, exact bool) []float64 {
	app := a.d.App
	out := make([]float64, app.NumComponents())
	out[a.src] = pushed
	for _, id := range app.Topo() {
		pe := app.PEIndex(id)
		if app.Component(id).Kind != core.KindPE {
			continue
		}
		var sum float64
		for _, e := range a.in[pe] {
			v := float64(e.num) * out[e.from] / selDen
			if exact {
				v = math.Floor(v)
			}
			sum += v
		}
		out[id] = sum
	}
	return out
}

// sinkRatio is the expected number of sink tuples per source tuple.
func (a *liveApp) sinkRatio() float64 {
	out := a.peOut(1, false)
	var s float64
	for pe, id := range a.peComp {
		for _, fed := range a.sinkOf[pe] {
			if fed {
				s += out[id]
			}
		}
	}
	return s
}

// expectedSink is the exact number of sink tuples pushed source tuples
// produce when every tuple reaches every PE's primary.
func (a *liveApp) expectedSink(pushed int64) int64 {
	out := a.peOut(float64(pushed), true)
	var s int64
	for pe, id := range a.peComp {
		for _, fed := range a.sinkOf[pe] {
			if fed {
				s += int64(out[id])
			}
		}
	}
	return s
}

// item is the payload of every tuple. seq and due are set by the
// generator; path and val by the operators, one hop at a time.
type item struct {
	seq  int64  // source sequence number
	due  int64  // when the generator was due to push the source tuple, ns since the run origin
	path uint64 // one radix digit (2·pe + copy + 1) per PE hop, oldest first
	val  uint64 // payload value, transformed at every hop
}

// mix is the synthetic operators' payload transformation.
func mix(v uint64, pe, copyIdx int) uint64 {
	v ^= uint64(pe)<<32 | uint64(copyIdx)
	v += 0x9e3779b97f4a7c15
	v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
	v = (v ^ v>>27) * 0x94d049bb133111eb
	return v ^ v>>31
}

// sourceVal is the payload value the generator stamps on tuple seq.
func sourceVal(seed, seq int64) uint64 { return mix(uint64(seed), int(seq&0x7fffffff), int(seq>>31)) }

// spin burns n xorshift steps: γ as a fixed amount of work, not a timed
// wait.
func spin(x uint64, n int) uint64 {
	x |= 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// activity tracks when a replica's operator last processed a tuple and
// when it first processed one after a mark the poller sets at each shift,
// so the poller can see which replicas run without reading runtime
// internals.
type activity struct {
	gapNs int64
	mark  atomic.Int64
	last  atomic.Int64
	first atomic.Int64 // first processing at or after mark; 0 until then
}

func (ac *activity) touch(now int64) {
	ac.last.Store(now)
	if ac.first.Load() == 0 && now >= ac.mark.Load() {
		ac.first.CompareAndSwap(0, now)
	}
}

// setMark starts watching for the first processing at or after at.
func (ac *activity) setMark(at int64) {
	ac.mark.Store(at)
	ac.first.Store(0)
}

// synthOp is the synthetic operator of one PE replica: per input edge it
// burns the edge's spin count and advances the edge's selectivity counter,
// emitting one transformed item per full counter.
type synthOp struct {
	a    *liveApp
	pe   int
	acc  []int
	sunk uint64 // spin results, kept so the work is not optimised away
	act  *activity
	tr   *tracer
	clk  *clock
}

func (o *synthOp) Process(t live.Tuple) []any {
	it := t.Data.(*item)
	traced := o.tr.sampleTuple(it.seq)
	var start int64
	if traced {
		start = o.tr.now()
	}
	if o.act != nil {
		o.act.touch(o.clk.now())
	}
	ei := o.a.edgeIdx[o.pe][t.From]
	e := &o.a.in[o.pe][ei]
	o.sunk ^= spin(it.val, e.spin)
	o.acc[ei] += e.num
	n := o.acc[ei] / selDen
	o.acc[ei] -= n * selDen
	var outs []any
	if n > 0 {
		outs = make([]any, n)
		for c := range outs {
			outs[c] = &item{seq: it.seq, due: it.due, path: it.path*o.a.base + uint64(2*o.pe+c+1), val: mix(it.val, o.pe, c)}
		}
	}
	if traced {
		o.tr.record(layerLive, "Process", "tuple", it.seq, start, o.tr.now(), 0, o.tr.stride)
	}
	return outs
}

// pathPEs decodes an item path into its PE hops, oldest first.
func (a *liveApp) pathHops(path uint64) (pes, copies []int) {
	for path > 0 {
		d := int(path%a.base) - 1
		path /= a.base
		pes = append(pes, d/2)
		copies = append(copies, d%2)
	}
	for i, j := 0, len(pes)-1; i < j; i, j = i+1, j-1 {
		pes[i], pes[j] = pes[j], pes[i]
		copies[i], copies[j] = copies[j], copies[i]
	}
	return pes, copies
}

// verifyItem checks that a delivered item is one the application defines:
// its path follows edges from the source to a PE feeding the sink it was
// delivered to, and its value is the source value transformed at every
// hop as the operators define.
func (a *liveApp) verifyItem(seed int64, sink core.ComponentID, it *item) error {
	pes, copies := a.pathHops(it.path)
	if len(pes) == 0 {
		return fmt.Errorf("tuple %d reached a sink without passing a PE", it.seq)
	}
	prev := a.src
	val := sourceVal(seed, it.seq)
	for i, pe := range pes {
		if pe >= len(a.peComp) || a.edgeIdx[pe][prev] < 0 {
			return fmt.Errorf("tuple %d took hop %d→pe%d, which is no edge", it.seq, prev, pe)
		}
		val = mix(val, pe, copies[i])
		prev = a.peComp[pe]
	}
	last := pes[len(pes)-1]
	if int(sink) >= len(a.sinkOf[last]) || !a.sinkOf[last][sink] {
		return fmt.Errorf("tuple %d delivered to sink %d from pe%d, which does not feed it", it.seq, sink, last)
	}
	if val != it.val {
		return fmt.Errorf("tuple %d payload %#x, want %#x", it.seq, it.val, val)
	}
	return nil
}
