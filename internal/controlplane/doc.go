// Package controlplane is the runtime-agnostic kernel of the LAAR control
// plane: pure, clock-free, allocation-light state machines for the
// decision components every LAAR runtime needs — rate monitoring and
// configuration selection (RateMonitor), lease-based leadership
// (LeaseElector), the acknowledged idempotent activation-command protocol
// (CommandSequencer and its replica-side ProxyState), IC-safe two-wave
// migration (MigrationSequencer), and the replica fail-safe rule
// (FailSafeTracker).
//
// Controller composes one HAController instance from its elector, its
// sequencer and, when staged, its migration sequencer, and owns the
// transitions whose steps must stay in order: Claim, StepDown, Switch,
// the wave-gated Command and Confirm. The live runtime, the cluster
// controller process, the chaos model and the mcheck explorer each drive
// one Controller per instance; the discrete-event engine drives the
// RateMonitor and FailSafeTracker directly and still fakes leadership
// with LowestAlive.
//
// The machines hold no goroutines, channels, clocks or RNGs: they take
// abstract time (int64 nanoseconds for the live runtime, float64 seconds
// for the discrete-event engine — see the Time constraint) plus explicit
// inputs, and return explicit decisions for the caller to execute. Drivers
// keep their transports, mailboxes and statistics around the machines, so
// every runtime executes the same decision arithmetic and the checkers
// check the code that runs.
//
// The package deliberately imports neither internal/engine, internal/live
// nor internal/sim; it may be reused by any future backend.
package controlplane
