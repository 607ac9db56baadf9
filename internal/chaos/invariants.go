package chaos

import (
	"fmt"
	"math"

	"laar/internal/core"
	"laar/internal/engine"
)

// Result bundles everything one engine chaos run produced, in the form the
// invariant registry consumes.
type Result struct {
	Scenario Scenario
	System   *System
	Schedule *Schedule
	// Metrics is the engine's aggregate measurement of the run.
	Metrics *engine.Metrics
	// Probes is the invariant-sampling series, one snapshot per second
	// plus the final quiescence snapshot.
	Probes []engine.Probe
	// MeasuredIC is ProcessedTotal over the failure-free expectation for
	// the realised trace; BoundIC is the strategy's pessimistic-model
	// guarantee evaluated against the same trace probabilities.
	MeasuredIC, BoundIC float64
}

// Violation is one invariant breach.
type Violation struct {
	// Invariant is the registry name of the breached invariant.
	Invariant string
	// Err describes the breach.
	Err error
}

func (v Violation) Error() string { return fmt.Sprintf("%s: %v", v.Invariant, v.Err) }

// Invariant is one checkable property of a chaos run.
type Invariant struct {
	// Name identifies the invariant in reports and violations.
	Name string
	// Doc is a one-line description.
	Doc string
	// Check returns nil when the invariant holds for the run.
	Check func(*Result) error
}

// Registry returns the standard LAAR invariants, checked after every
// engine chaos run.
func Registry() []Invariant {
	return []Invariant{
		{
			Name: "ic-bound",
			Doc:  "measured IC ≥ pessimistic guarantee while failures stay within the declared model",
			Check: func(r *Result) error {
				if !r.Schedule.WithinModel {
					return nil // bound only promised inside the failure model
				}
				if r.MeasuredIC < r.BoundIC-r.Scenario.ICTolerance {
					return fmt.Errorf("measured IC %.4f below pessimistic bound %.4f − tolerance %.2f",
						r.MeasuredIC, r.BoundIC, r.Scenario.ICTolerance)
				}
				return nil
			},
		},
		{
			Name: "primary-unique",
			Doc:  "exactly one primary per PE at quiescence, the lowest-indexed eligible replica",
			Check: func(r *Result) error {
				last, err := finalProbe(r)
				if err != nil {
					return err
				}
				eligible := eligibleByPE(last)
				for pe, prim := range last.Primary {
					if len(eligible[pe]) == 0 {
						return fmt.Errorf("PE %d has no eligible replica at quiescence", pe)
					}
					if prim != eligible[pe][0] {
						return fmt.Errorf("PE %d primary = %d, want lowest eligible %d (eligible set %v)",
							pe, prim, eligible[pe][0], eligible[pe])
					}
					if last.Eligible[pe] != len(eligible[pe]) {
						return fmt.Errorf("PE %d eligibility count %d disagrees with replica states %v",
							pe, last.Eligible[pe], eligible[pe])
					}
				}
				return nil
			},
		},
		{
			Name: "no-split-brain",
			Doc:  "a probe never reports a primary that is dead, inactive, on a down host, or cut from the controller",
			Check: func(r *Result) error {
				for _, p := range r.Probes {
					byKey := make(map[[2]int]engine.ReplicaProbe, len(p.Replicas))
					for _, rp := range p.Replicas {
						byKey[[2]int{rp.PE, rp.Replica}] = rp
					}
					for pe, prim := range p.Primary {
						if prim < 0 {
							continue
						}
						rp, ok := byKey[[2]int{pe, prim}]
						if !ok {
							return fmt.Errorf("t=%.1f: PE %d primary %d has no replica probe", p.Time, pe, prim)
						}
						if !rp.Alive || !rp.Active || !rp.HostUp || !rp.CtrlReachable {
							return fmt.Errorf("t=%.1f: PE %d primary %d ineligible (alive=%v active=%v hostUp=%v ctrl=%v)",
								p.Time, pe, prim, rp.Alive, rp.Active, rp.HostUp, rp.CtrlReachable)
						}
					}
				}
				return nil
			},
		},
		{
			Name: "re-replication",
			Doc:  "after the last failure clears, every replica is alive on an up, controller-reachable host",
			Check: func(r *Result) error {
				last, err := finalProbe(r)
				if err != nil {
					return err
				}
				for _, rp := range last.Replicas {
					if !rp.Alive || !rp.HostUp || !rp.CtrlReachable {
						return fmt.Errorf("replica (%d,%d) not restored at quiescence (alive=%v hostUp=%v ctrl=%v)",
							rp.PE, rp.Replica, rp.Alive, rp.HostUp, rp.CtrlReachable)
					}
				}
				return nil
			},
		},
		{
			Name: "queue-bounds",
			Doc:  "no input queue ever exceeds its configured capacity",
			Check: func(r *Result) error {
				for _, p := range r.Probes {
					for _, rp := range p.Replicas {
						if rp.OverCap {
							return fmt.Errorf("replica (%d,%d) queue over capacity at t=%.1f", rp.PE, rp.Replica, p.Time)
						}
					}
				}
				return nil
			},
		},
		{
			Name: "tuple-conservation",
			Doc:  "enqueued = processed + dropped + cleared + queued, per replica; metric ledgers balance",
			Check: func(r *Result) error {
				last, err := finalProbe(r)
				if err != nil {
					return err
				}
				for _, rp := range last.Replicas {
					ledger := rp.Processed + rp.Dropped + rp.Cleared + rp.Queued
					if math.Abs(ledger-rp.Enqueued) > 1e-6*math.Max(1, rp.Enqueued) {
						return fmt.Errorf("replica (%d,%d): enqueued %.3f ≠ processed %.3f + dropped %.3f + cleared %.3f + queued %.3f",
							rp.PE, rp.Replica, rp.Enqueued, rp.Processed, rp.Dropped, rp.Cleared, rp.Queued)
					}
				}
				var perPE float64
				for _, p := range r.Metrics.PerPEProcessed {
					perPE += p
				}
				if math.Abs(perPE-r.Metrics.ProcessedTotal) > 1e-6*math.Max(1, r.Metrics.ProcessedTotal) {
					return fmt.Errorf("per-PE processed sum %.3f ≠ ProcessedTotal %.3f", perPE, r.Metrics.ProcessedTotal)
				}
				return nil
			},
		},
		{
			Name: "monotone-recovery",
			Doc:  "after the last failure clears, every PE is lit and the output rate recovers",
			Check: func(r *Result) error {
				last, err := finalProbe(r)
				if err != nil {
					return err
				}
				for pe, prim := range last.Primary {
					if prim < 0 {
						return fmt.Errorf("PE %d still dark after the last failure cleared", pe)
					}
				}
				const slack = 8 // seconds for queues to drain and elections to settle
				tailStart := r.Schedule.LastClear + slack
				var got, want float64
				var n int
				for _, s := range r.Metrics.Series {
					if s.Time <= tailStart {
						continue
					}
					got += s.OutputRate
					want += expectedSinkRate(r.System, r.Schedule.Trace.ConfigAt(s.Time-1))
					n++
				}
				if n == 0 {
					return fmt.Errorf("no samples after recovery tail start %.1f", tailStart)
				}
				if want > 0 && got < 0.85*want {
					return fmt.Errorf("tail output %.2f t/s below 85%% of the failure-free expectation %.2f t/s",
						got/float64(n), want/float64(n))
				}
				return nil
			},
		},
		{
			Name: "no-shared-domain",
			Doc:  "with a fault-domain map, no PE has two replicas in the same domain at the placed anti-affinity level",
			Check: func(r *Result) error {
				if r.System.Domains == nil {
					return nil
				}
				return r.System.Asg.ValidateDomains(r.System.Domains, r.System.DomainLevel)
			},
		},
		{
			Name: "ic-floor-during-migration",
			Doc:  "every staged migration holds the old ∪ new union between its waves, and the union's IC never dips below the weaker endpoint in either configuration",
			Check: func(r *Result) error {
				for i, rec := range r.Metrics.MigrationLog {
					if err := migrationFloorErr(r.System.Rates, rec.FromCfg, rec.ToCfg, rec.Old, rec.Mid, rec.New); err != nil {
						return fmt.Errorf("migration %d (t=%.1f, cfg %d→%d): %w", i, rec.Time, rec.FromCfg, rec.ToCfg, err)
					}
				}
				return nil
			},
		},
		{
			Name: "recovery-time-bound",
			Doc:  "every crashed checkpointed replica is alive again within the checkpoint policy's restore delay",
			Check: func(r *Result) error {
				if r.System.FT == nil || r.System.Ckpt == nil {
					return nil
				}
				ckptPEs := r.System.FT.CheckpointPEs()
				const slack = 2 // probe granularity + restore scheduling jitter
				for _, ev := range r.Schedule.Events {
					if ev.Kind != engine.ReplicaDown || ev.PE >= len(ckptPEs) || !ckptPEs[ev.PE] {
						continue
					}
					deadline := ev.Time + r.System.Ckpt.RestoreDelay + slack
					checked := false
					for _, p := range r.Probes {
						if p.Time < deadline {
							continue
						}
						for _, rp := range p.Replicas {
							if rp.PE == ev.PE && rp.Replica == ev.Replica {
								if !rp.Alive {
									return fmt.Errorf("checkpointed replica (%d,%d) crashed at t=%.1f still dead at t=%.1f (restore bound %.1fs)",
										ev.PE, ev.Replica, ev.Time, p.Time, r.System.Ckpt.RestoreDelay)
								}
								checked = true
							}
						}
						break
					}
					if !checked {
						return fmt.Errorf("no probe after t=%.1f to verify the restore of replica (%d,%d)",
							deadline, ev.PE, ev.Replica)
					}
				}
				return nil
			},
		},
	}
}

// Check runs every registry invariant against a result and returns the
// violations, empty when the run is clean.
func Check(r *Result) []Violation {
	var out []Violation
	for _, inv := range Registry() {
		if err := inv.Check(r); err != nil {
			out = append(out, Violation{Invariant: inv.Name, Err: err})
		}
	}
	return out
}

func finalProbe(r *Result) (engine.Probe, error) {
	if len(r.Probes) == 0 {
		return engine.Probe{}, fmt.Errorf("run produced no probes")
	}
	return r.Probes[len(r.Probes)-1], nil
}

// eligibleByPE recomputes, from the raw replica states, which replicas of
// each PE are eligible for primary election — an independent cross-check
// of the engine's own eligibility accounting.
func eligibleByPE(p engine.Probe) map[int][]int {
	out := make(map[int][]int)
	for _, rp := range p.Replicas {
		if rp.Alive && rp.Active && rp.HostUp && rp.CtrlReachable {
			out[rp.PE] = append(out[rp.PE], rp.Replica)
		}
	}
	return out
}

// expectedSinkRate returns the failure-free expected total sink input rate
// in a configuration.
func expectedSinkRate(sys *System, cfg int) float64 {
	var sum float64
	for _, sink := range sys.Desc.App.Sinks() {
		sum += sys.Rates.Rate(sink, cfg)
	}
	return sum
}

// migrationFloorErr checks one staged migration's pattern triple: mid must
// be exactly old ∪ new, and its per-configuration IC must dominate the
// weaker endpoint's — min(IC(old), IC(new)) — under both the source and the
// target configuration. This is the ic-floor-during-migration invariant,
// shared by the engine-run registry, the model checker's inline check, and
// the differential runner's live-leg audit. Configurations below zero (the
// initial application has no source) are skipped.
func migrationFloorErr(rates *core.Rates, fromCfg, toCfg int, old, mid, new [][]bool) error {
	for pe := range mid {
		for k := range mid[pe] {
			if mid[pe][k] != (old[pe][k] || new[pe][k]) {
				return fmt.Errorf("mid pattern is not old ∪ new at replica (%d,%d)", pe, k)
			}
		}
	}
	return patternFloorErr(rates, fromCfg, toCfg, old, mid, new)
}

// patternFloorErr checks pattern p's IC against the weaker migration
// endpoint's in both configurations; a negative configuration is skipped.
func patternFloorErr(rates *core.Rates, fromCfg, toCfg int, old, p, new [][]bool) error {
	for _, cfg := range [2]int{fromCfg, toCfg} {
		if cfg < 0 {
			continue
		}
		ic := core.ConfigPatternIC(rates, cfg, p)
		floor := math.Min(core.ConfigPatternIC(rates, cfg, old), core.ConfigPatternIC(rates, cfg, new))
		if ic < floor-1e-9 {
			return fmt.Errorf("pattern IC %.6f below endpoint floor %.6f in configuration %d", ic, floor, cfg)
		}
	}
	return nil
}

// traceIC evaluates the IC mathematics against the probability mass the
// trace actually realised: the pessimistic-model bound for the strategy,
// and the failure-free expected number of PE-level tuple processings over
// the trace (the denominator of the measured IC).
func traceIC(sys *System, sched *Schedule) (bound, expectedProcessed float64, err error) {
	probs := make([]float64, sys.Desc.NumConfigs())
	for c := range probs {
		probs[c] = sched.Trace.Share(c)
	}
	d2, err := sys.Desc.WithProbs(probs, sched.Trace.Duration())
	if err != nil {
		return 0, 0, err
	}
	r2 := core.NewRates(d2)
	return core.IC(r2, sys.Strat, core.Pessimistic{}), core.BIC(r2), nil
}
