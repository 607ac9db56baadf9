package netx

import (
	"time"

	"laar/internal/clock"
)

// Clock supplies time to the reconnect loop: Now stamps connection ages
// (the backoff reset rule) and After schedules redial and keepalive waits.
// The default wall clock is the production path; tests inject a clock.Fake
// so backoff schedules are asserted deterministically without sleeping.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel delivering the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// WallClock returns the real-time clock.
func WallClock() Clock { return clock.Wall{} }
