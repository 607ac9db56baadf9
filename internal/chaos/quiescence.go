package chaos

import "fmt"

// quiescenceCheck is one run-end control-plane invariant, read off a
// model result: a stable code (the identity the model shrinker
// preserves), the failure predicate, and the message Err reports.
type quiescenceCheck struct {
	code   string
	failed func(*ModelResult) bool
	msg    func(*ModelResult) string
}

// quiescenceChecks is the one ordered list of run-end invariants behind
// ModelResult.Err, ControllerResult.Err and ModelResult.FailureCodes:
// lease uniqueness, one converged leader, a drained command table,
// replicas matching the applied configuration under the leader's ballot,
// and a fail-safe that engaged across the blackout and cleared after it.
var quiescenceChecks = []quiescenceCheck{
	{"dup-epochs",
		func(r *ModelResult) bool { return len(r.DupEpochs) > 0 },
		func(r *ModelResult) string { return fmt.Sprintf("lease epochs %v claimed more than once", r.DupEpochs) }},
	{"no-leader",
		func(r *ModelResult) bool { return r.Leader < 0 },
		func(*ModelResult) string { return "no instance leads at quiescence" }},
	{"multi-leader",
		func(r *ModelResult) bool { return r.Leader >= 0 && len(r.BelievedLeaders) != 1 },
		func(r *ModelResult) string {
			return fmt.Sprintf("instances %v all believe they lead at quiescence", r.BelievedLeaders)
		}},
	{"pending-commands",
		func(r *ModelResult) bool { return r.PendingCommands != 0 },
		func(r *ModelResult) string {
			return fmt.Sprintf("%d commands still unacknowledged at quiescence", r.PendingCommands)
		}},
	{"active-mismatch",
		func(r *ModelResult) bool { return len(r.ActiveMismatches) > 0 },
		func(r *ModelResult) string {
			return fmt.Sprintf("activations %v disagree with configuration %d", r.ActiveMismatches, r.AppliedConfig)
		}},
	{"epoch-lag",
		func(r *ModelResult) bool { return len(r.EpochLags) > 0 },
		func(r *ModelResult) string {
			return fmt.Sprintf("replicas %v follow stale ballots, leader epoch %d", r.EpochLags, r.Epoch)
		}},
	{"failsafe-missing",
		func(r *ModelResult) bool { return r.FailSafeExpected && !r.FailSafeObserved },
		func(*ModelResult) string {
			return "control plane dark past the horizon but the fail-safe never engaged"
		}},
	{"failsafe-stuck",
		func(r *ModelResult) bool { return !r.FailSafeCleared },
		func(*ModelResult) string { return "fail-safe still engaged at quiescence" }},
}

// FailureCodes returns the stable codes of every invariant the model run
// failed: the failed quiescence checks in list order, then "state:" plus
// the name of each per-state violation. Empty exactly when Err is nil.
func (mr *ModelResult) FailureCodes() []string {
	var codes []string
	for _, c := range quiescenceChecks {
		if c.failed(mr) {
			codes = append(codes, c.code)
		}
	}
	for _, v := range mr.StepViolations {
		codes = append(codes, "state:"+v.Invariant)
	}
	return codes
}
