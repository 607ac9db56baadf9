package live

import (
	"time"

	"laar/internal/controlplane"
	"laar/internal/core"
	"laar/internal/ftsearch"
)

// This file is the live side of the IC-safe migration protocol
// (Config.Resolve): on every configuration switch the acting leader
// optionally re-solves the activation strategy with its retained
// incremental FT-Search solver — warm-started from the previous solution
// and shifted to the rates its own Rate Monitor measured — and then drives
// the replica set from the old activation pattern to the new one through
// the acknowledged command protocol in two waves, sequenced by the
// instance's staged controlplane.Controller: every replica the new pattern adds is
// commanded active and individually acknowledged before any replica only
// the old pattern used is commanded inactive. Between the waves the live
// pattern is the old ∪ new union, whose per-configuration IC dominates
// both endpoints (IC is monotone in the pattern under the pessimistic
// model), so no intermediate step dips below the weaker endpoint's
// internal completeness — the ic-floor-during-migration invariant.

// ResolveConfig configures leader-side incremental re-solving and staged
// migration (Config.Resolve).
type ResolveConfig struct {
	// ICMin is the internal-completeness bound handed to FT-Search.
	ICMin float64
	// Budget, when positive, bounds each re-solve's wall-clock time: the
	// solver runs in anytime mode and returns the best strategy known at
	// the deadline. Zero leaves re-solves unbudgeted.
	Budget time.Duration
	// StageOnly disables the solver: configuration switches still migrate
	// through the two-wave activation plan, but the strategy handed to New
	// stays fixed for the whole run.
	StageOnly bool
}

// MigrationRecord documents one staged live migration: the activation
// patterns ([pe][replica]) the deployment moved through. Mid is the
// old ∪ new union live between the activation and the deactivation wave;
// the ic-floor invariant checks IC(Mid) ≥ min(IC(Old), IC(New)) under both
// endpoint configurations.
type MigrationRecord struct {
	// Time is when the leader decided the migration.
	Time time.Time
	// Controller is the leader instance that planned it.
	Controller int
	// FromCfg and ToCfg are the input configurations switched between.
	FromCfg, ToCfg int
	// Old, Mid and New are the activation patterns before, between and
	// after the waves. When the migration superseded one still in flight,
	// Old includes the slots the superseded plan was keeping up.
	Old, Mid, New [][]bool
	// ResolveNodes is the search nodes the re-solve explored (0 with
	// StageOnly), and WarmStart whether it was seeded by a surviving
	// incumbent.
	ResolveNodes int64
	WarmStart    bool
}

// Strategy returns the activation strategy the control plane currently
// drives — the one handed to New until a re-solve replaces it. Safe for
// concurrent use.
func (rt *Runtime) Strategy() *core.Strategy { return rt.strat.Load() }

// MigrationHistory returns every staged migration decided so far, in
// decision order. Empty unless Config.Resolve is set.
func (rt *Runtime) MigrationHistory() []MigrationRecord {
	rt.migMu.Lock()
	defer rt.migMu.Unlock()
	out := make([]MigrationRecord, len(rt.migrations))
	copy(out, rt.migrations)
	return out
}

func clonePattern(p [][]bool) [][]bool {
	out := make([][]bool, len(p))
	for pe := range p {
		out[pe] = append([]bool(nil), p[pe]...)
	}
	return out
}

// initResolve equips every controller instance with its own incremental
// solver (none with StageOnly), so each instance's incumbent and caches are
// touched only from its own goroutine.
func (rt *Runtime) initResolve(r *core.Rates) error {
	rc := rt.cfg.Resolve
	if rc.StageOnly {
		return nil
	}
	for _, c := range rt.ctrls {
		sv, err := ftsearch.NewSolver(r, rt.asg, ftsearch.SolverConfig{
			Opts:          ftsearch.Options{ICMin: rc.ICMin},
			ResolveBudget: rc.Budget,
		})
		if err != nil {
			return err
		}
		c.solver = sv
	}
	return nil
}

// measuredScale maps leader c's measured source rates onto a rate shift
// for the target configuration: total measured rate over the
// configuration's total nominal rate, clamped to keep the shifted search
// instance well-conditioned. 1 when nothing was measured yet or the
// configuration carries no nominal rate.
func (rt *Runtime) measuredScale(c *controller, cfg int) float64 {
	var meas, nom float64
	for i, r := range rt.d.Configs[cfg].Rates {
		if i < len(c.measured) {
			meas += c.measured[i]
		}
		nom += r
	}
	if !(meas > 0) || !(nom > 0) {
		return 1
	}
	s := meas / nom
	if s < 0.01 {
		s = 0.01
	} else if s > 100 {
		s = 100
	}
	return s
}

// resolveAs runs one incremental re-solve on leader c's solver, shifted to
// the rates the leader measured for the target configuration. Returns nil
// when the solve produced no usable strategy (the leader then keeps the
// current one).
func (rt *Runtime) resolveAs(c *controller, toCfg int) *ftsearch.Result {
	res, err := c.solver.Resolve(ftsearch.Shift{Cfg: toCfg, Scale: rt.measuredScale(c, toCfg)})
	c.resolves.Add(1)
	if res != nil {
		c.resolveNodes.Add(res.Stats.Nodes)
		if res.WarmStart {
			c.warmResolves.Add(1)
		}
	}
	if err != nil || res == nil || res.Strategy == nil {
		c.resolveFailures.Add(1)
		return nil
	}
	return res
}

// stageSwitch handles leader c's decision to switch fromCfg → toCfg under
// staged migration: re-solve (unless StageOnly), then begin the two-wave
// plan from the pattern the leader was driving to the pattern the
// (possibly new) strategy prescribes for the target configuration, and
// record it. Returns the strategy the scan should drive.
func (rt *Runtime) stageSwitch(c *controller, fromCfg, toCfg int, now time.Time) *core.Strategy {
	prev := rt.Strategy()
	next := prev
	var nodes int64
	var warm bool
	if c.solver != nil {
		if res := rt.resolveAs(c, toCfg); res != nil {
			next = res.Strategy
			rt.strat.Store(next)
			nodes, warm = res.Stats.Nodes, res.WarmStart
		}
	}
	c.ctl.Switch(prev, fromCfg, next, toCfg)
	rec := MigrationRecord{
		Time:         now,
		Controller:   c.id,
		FromCfg:      fromCfg,
		ToCfg:        toCfg,
		Old:          clonePattern(c.ctl.Old()),
		New:          clonePattern(c.ctl.New()),
		ResolveNodes: nodes,
		WarmStart:    warm,
	}
	rec.Mid = controlplane.Union(nil, rec.Old, rec.New)
	rt.migMu.Lock()
	rt.migrations = append(rt.migrations, rec)
	rt.migMu.Unlock()
	return next
}
