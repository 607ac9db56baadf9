package live

import (
	"time"

	"laar/internal/clock"
)

// Clock abstracts the time source of the runtime: heartbeat stamps,
// election deadlines, and the periodic tickers that drive replica
// heartbeats and controller scans. The default wall clock preserves the
// original real-time behaviour; a FakeClock makes failure-injection runs
// deterministic and lets a multi-minute scenario execute in milliseconds
// of wall time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTicker returns a ticker firing every d of this clock's time.
	NewTicker(d time.Duration) *Ticker
}

// Ticker is the clock-agnostic counterpart of time.Ticker.
type Ticker = clock.Ticker

// FakeClock is a manually advanced Clock (see clock.Fake).
type FakeClock = clock.Fake

// NewFakeClock returns a fake clock starting at the given origin.
func NewFakeClock(origin time.Time) *FakeClock { return clock.NewFake(origin) }
