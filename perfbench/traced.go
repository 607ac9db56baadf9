package main

import (
	"fmt"
	"runtime"
	"time"
)

// runTraced is the traced variant of a workload. It runs the workload
// once untraced as the reference, once with spans recorded around every
// call into a layer, and, for steady-stream and plan-and-simulate, repeats
// the parallel part at GOMAXPROCS=1 as the single-threaded baseline. It
// reports the per-layer metrics, each layer's self time, and the tracing
// overhead against the reference.
func runTraced(w *workload, ctx *runCtx, spansDir string) (*outcome, error) {
	// The reference runs half as long: the overhead is read on rates and
	// medians, which do not depend on run length.
	ref, err := w.run(&runCtx{seed: ctx.seed, seconds: ctx.seconds / 2, tr: newTracer(false)})
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	tctx := &runCtx{seed: ctx.seed, seconds: ctx.seconds, tr: newTracer(true), traced: true}
	out, err := w.run(tctx)
	if err != nil {
		return nil, err
	}
	out.fail(ref.checkErr)
	spans := tctx.tr.snapshot()
	for layer, s := range selfTime(spans) {
		out.metrics["selftime_s."+layer] = s
	}
	// The overhead is read on the metric the workload's time is spent on.
	switch w.name {
	case "steady-stream":
		out.metrics["bench.trace_overhead_frac"] = ref.metrics["saturation_tuples_per_s"]/out.metrics["saturation_tuples_per_s"] - 1
	case "load-spike":
		out.metrics["bench.trace_overhead_frac"] = out.metrics["cpu_us_per_tuple"]/ref.metrics["cpu_us_per_tuple"] - 1
	case "plan-and-simulate":
		out.metrics["bench.trace_overhead_frac"] = out.metrics["batch_s"]/ref.metrics["batch_s"] - 1
	}
	n := runtime.GOMAXPROCS(0)
	switch w.name {
	case "steady-stream":
		var one *outcome
		err := gomaxprocs(1, func() error {
			var err error
			one, err = runSteadyClosed(&runCtx{seed: ctx.seed, seconds: ctx.seconds, tr: newTracer(false)})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("GOMAXPROCS=1 baseline: %w", err)
		}
		out.metrics["live.gomaxprocs_speedup"] = ref.metrics["saturation_tuples_per_s"] / one.metrics["saturation_tuples_per_s"]
		out.note("live.gomaxprocs_speedup: closed-loop saturation at GOMAXPROCS=%d over GOMAXPROCS=1", n)
	case "plan-and-simulate":
		c, err := genCorpus(ctx.seed)
		if err != nil {
			return nil, err
		}
		sharded, err := runHuge(c.huge, nil, 0, n)
		if err != nil {
			return nil, err
		}
		var single float64
		if err := gomaxprocs(1, func() error {
			var err error
			single, err = runHuge(c.huge, nil, 0, 1)
			return err
		}); err != nil {
			return nil, fmt.Errorf("GOMAXPROCS=1 baseline: %w", err)
		}
		out.metrics["engine.shard_speedup"] = single / sharded
		out.note("engine.shard_speedup: HugeCell Run at GOMAXPROCS=1, 1 shard, over GOMAXPROCS=%d, %d shards", n, n)
	}
	// A layer the workload never calls did no work: its metrics are 0.
	for _, m := range perLayer {
		if _, ok := out.metrics[m.name]; !ok {
			out.metrics[m.name] = 0
		}
	}
	if spansDir != "" {
		path, err := writeSpans(spansDir, w.name, ctx.seed, spans)
		if err != nil {
			return nil, err
		}
		out.note("%d spans written to %s", len(spans), path)
	}
	return out, nil
}

// runSteadyClosed is steady-stream's closed-loop phase alone.
func runSteadyClosed(ctx *runCtx) (*outcome, error) {
	o := newOutcome()
	a, strat, _, err := liveSetup(steadyParams, nil, liveConfig(1), 1)
	if err != nil {
		return nil, err
	}
	S := time.Duration(ctx.seconds * float64(time.Second))
	p := &livePool{}
	if err := closedPhase(ctx, o, p, a, strat, closedConfig(a.low), steadyWindow, steadyBatch, S/5); err != nil {
		return nil, err
	}
	o.metrics["saturation_tuples_per_s"] = median(p.batchRates)
	return o, nil
}
