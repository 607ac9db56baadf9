package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// TestQuiescenceCodesMapToOneMessage asserts the quiescence list is one
// definition for all three of its readers: a result breaking exactly one
// check reports exactly that check's code (the model shrinker's signature)
// and exactly one Err message, no two codes share a message, and the live
// controller harness reports the same message for the same breach.
func TestQuiescenceCodesMapToOneMessage(t *testing.T) {
	breaks := map[string]func(*ModelResult){
		"dup-epochs":       func(mr *ModelResult) { mr.DupEpochs = []uint64{0x101} },
		"no-leader":        func(mr *ModelResult) { mr.Leader, mr.BelievedLeaders = -1, nil },
		"multi-leader":     func(mr *ModelResult) { mr.BelievedLeaders = []int{0, 1} },
		"pending-commands": func(mr *ModelResult) { mr.PendingCommands = 2 },
		"active-mismatch":  func(mr *ModelResult) { mr.ActiveMismatches = []string{"(0,1) active=true want false"} },
		"epoch-lag":        func(mr *ModelResult) { mr.EpochLags = []string{"(0,0) epoch=1"} },
		"failsafe-missing": func(mr *ModelResult) { mr.FailSafeExpected = true },
		"failsafe-stuck":   func(mr *ModelResult) { mr.FailSafeCleared = false },
	}
	if len(breaks) != len(quiescenceChecks) {
		t.Fatalf("test covers %d codes, the list has %d", len(breaks), len(quiescenceChecks))
	}
	clean := func() *ModelResult {
		return &ModelResult{Leader: 0, BelievedLeaders: []int{0}, FailSafeCleared: true}
	}
	if codes := clean().FailureCodes(); len(codes) != 0 {
		t.Fatalf("clean result reports codes %v", codes)
	}
	owner := map[string]string{}
	for _, c := range quiescenceChecks {
		brk, ok := breaks[c.code]
		if !ok {
			t.Fatalf("no breach for code %q", c.code)
		}
		mr := clean()
		brk(mr)
		if got := mr.FailureCodes(); !reflect.DeepEqual(got, []string{c.code}) {
			t.Errorf("%s: codes = %v", c.code, got)
		}
		msg := c.msg(mr)
		if prev, dup := owner[msg]; dup {
			t.Errorf("codes %q and %q share the message %q", prev, c.code, msg)
		}
		owner[msg] = c.code
		lines := strings.Split(mr.Err().Error(), "\n")
		if len(lines) != 1 || !strings.Contains(lines[0], msg) {
			t.Errorf("%s: model Err = %q, want the one message %q", c.code, lines, msg)
		}
		cr := &ControllerResult{
			Schedule: &Schedule{}, DupEpochs: mr.DupEpochs, Leader: mr.Leader,
			BelievedLeaders: mr.BelievedLeaders, PendingCommands: int64(mr.PendingCommands),
			ActiveMismatches: mr.ActiveMismatches, EpochLags: mr.EpochLags,
			FailSafeExpected: mr.FailSafeExpected, FailSafeObserved: mr.FailSafeObserved,
			FailSafeCleared: mr.FailSafeCleared,
		}
		if err := cr.Err(); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: controller Err = %v, want %q", c.code, err, msg)
		}
	}
}
