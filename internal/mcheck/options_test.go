package mcheck

import (
	"strings"
	"testing"
)

// TestFaultNames asserts String and ParseFault are inverses over every
// fault, so artifact files and -inject flags round-trip.
func TestFaultNames(t *testing.T) {
	for _, f := range []Fault{FaultNone, FaultCrashKeepsPending, FaultClaimAdoptsSeen, FaultDupReapplies, FaultDeactivateFirst} {
		got, err := ParseFault(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFault(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFault("made-up"); err == nil {
		t.Fatalf("ParseFault accepted an unknown name")
	}
	if s := Fault(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown fault renders as %q", s)
	}
}

// TestOptionsValidate walks every rejection branch and asserts zero fields
// are filled from the defaults before validation.
func TestOptionsValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Instances = -1 },
		func(o *Options) { o.Instances = 999 },
		func(o *Options) { o.PEs = -1 },
		func(o *Options) { o.K = -1 },
		func(o *Options) { o.Depth = -1 },
		func(o *Options) { o.TTL = -1 },
		func(o *Options) { o.RetryMin = -1 },
		func(o *Options) { o.RetryMin = 3; o.RetryMax = 2 },
		func(o *Options) { o.FailSafe = -1 },
		func(o *Options) { o.Migration = true; o.K = 1 },
	}
	for i, mutate := range bad {
		opt := DefaultOptions()
		mutate(&opt)
		if _, err := Explore(opt); err == nil {
			t.Fatalf("case %d: Explore accepted invalid options %+v", i, opt)
		}
	}
	// The zero value fills in completely from the defaults.
	if got := (Options{}).withDefaults(); got != DefaultOptions() {
		t.Fatalf("zero options fill to %+v, want %+v", got, DefaultOptions())
	}
}

// TestRenderers pins the human-readable forms used in counterexample
// reports and CLI output.
func TestRenderers(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: EvTick}, "tick"},
		{Event{Kind: EvCrash, A: 1}, "crash(1)"},
		{Event{Kind: EvRecover, A: 2}, "recover(2)"},
		{Event{Kind: EvCut, A: 0, B: 1}, "cut(0,1)"},
		{Event{Kind: EvHeal, A: 0, B: 2}, "heal(0,2)"},
		{Event{Kind: EvDeliver, A: 1, B: 0}, "deliver(inst=1,slot=0)"},
		{Event{Kind: EvDropCmd, A: 0, B: 1}, "drop-cmd(inst=0,slot=1)"},
		{Event{Kind: EvDropAck, A: 0, B: 0}, "drop-ack(inst=0,slot=0)"},
		{Event{Kind: EvFlip, A: 1}, "flip(1)"},
		{Event{Kind: EvDupCmd, B: 1}, "dup-cmd(slot=1)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Fatalf("%+v renders as %q, want %q", tc.e, got, tc.want)
		}
	}
	if s := EventKind(42).String(); !strings.Contains(s, "42") {
		t.Fatalf("unknown kind renders as %q", s)
	}

	ce := &Counterexample{
		Invariant: "ballot-holder",
		Detail:    "epoch 7 held by nobody",
		Events:    []Event{{Kind: EvTick}, {Kind: EvCrash, A: 0}},
	}
	s := ce.String()
	for _, want := range []string{"ballot-holder", "after 2 events", "epoch 7 held by nobody", "tick", "crash(0)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("counterexample rendering misses %q:\n%s", want, s)
		}
	}
	if err := (&Result{Counterexample: ce}).Err(); err == nil || !strings.Contains(err.Error(), "ballot-holder") {
		t.Fatalf("Result.Err() = %v", err)
	}
	if err := (&Result{}).Err(); err != nil {
		t.Fatalf("clean Result.Err() = %v", err)
	}
}
