// Package clock is the time source of the live runtime and of netx's
// reconnecting connections: the wall clock, and a manually advanced fake
// clock that makes failure-injection runs and backoff tests deterministic
// and lets a multi-minute scenario execute in milliseconds of wall time.
package clock

import (
	"sync"
	"time"
)

// Ticker is the clock-agnostic counterpart of time.Ticker.
type Ticker struct {
	// C delivers ticks.
	C <-chan time.Time
	// stop releases the ticker's resources.
	stop func()
}

// Stop turns the ticker off. No more ticks are delivered after Stop
// returns (fake tickers) or shortly after (wall tickers, as with
// time.Ticker).
func (t *Ticker) Stop() { t.stop() }

// Wall is the production clock backed by package time.
type Wall struct{}

// Now returns the current time.
func (Wall) Now() time.Time { return time.Now() }

// After returns a channel delivering the time once d has elapsed.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTicker returns a ticker firing every d.
func (Wall) NewTicker(d time.Duration) *Ticker {
	tk := time.NewTicker(d)
	return &Ticker{C: tk.C, stop: tk.Stop}
}

// Fake is a manually advanced clock. Time only moves when Advance is
// called; After waiters and tickers fire in deadline order as the clock
// sweeps past them (tickers due at the same instant in creation order).
// Tick delivery is non-blocking on a 1-slot channel: a receiver that has
// not drained its previous tick coalesces the missed ones, exactly as
// time.Ticker does.
//
// Advance briefly yields the processor after each batch of deliveries so
// the goroutines it woke get scheduled before the clock moves again; this
// keeps heartbeat, election and redial behaviour stable without making
// the fake clock depend on wall-clock timing.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
	tickers []*ticker
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

type ticker struct {
	ch     chan time.Time
	period time.Duration
	next   time.Time
	done   bool
}

// NewFake returns a fake clock starting at origin.
func NewFake(origin time.Time) *Fake { return &Fake{now: origin} }

// Now returns the fake time.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel delivering the fake time once d has elapsed. A
// non-positive d fires at once, matching time.After's "already due"
// behaviour closely enough for scheduling loops.
func (c *Fake) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &waiter{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if !w.at.After(c.now) {
		w.ch <- c.now
	} else {
		c.waiters = append(c.waiters, w)
	}
	return w.ch
}

// NewTicker returns a ticker firing every d of fake time, the first tick
// one period from now.
func (c *Fake) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive fake ticker period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &ticker{ch: make(chan time.Time, 1), period: d, next: c.now.Add(d)}
	c.tickers = append(c.tickers, ft)
	return &Ticker{C: ft.ch, stop: func() {
		c.mu.Lock()
		ft.done = true
		c.mu.Unlock()
	}}
}

// Waiters reports how many After channels are still pending — tests use
// it to know a scheduling loop has parked before advancing time.
func (c *Fake) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// Advance moves the clock forward by d, firing every waiter and ticker
// due on the way in deadline order.
func (c *Fake) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: advancing fake clock backwards")
	}
	c.mu.Lock()
	target := c.now.Add(d)
	for c.fireNext(target) {
		// Let the receivers run before time moves again.
		c.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}

// fireNext moves the clock to the earliest deadline at or before target
// and fires everything due then, reporting false when nothing is due.
// Callers hold c.mu.
func (c *Fake) fireNext(target time.Time) bool {
	next, due := target, false
	for _, w := range c.waiters {
		if !w.at.After(next) {
			next, due = w.at, true
		}
	}
	for _, ft := range c.tickers {
		if !ft.done && !ft.next.After(next) {
			next, due = ft.next, true
		}
	}
	if !due {
		return false
	}
	c.now = next
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.at.After(next) {
			kept = append(kept, w)
		} else {
			w.ch <- next
		}
	}
	c.waiters = kept
	for _, ft := range c.tickers {
		if !ft.done && ft.next.Equal(next) {
			select {
			case ft.ch <- next:
			default:
			}
			ft.next = ft.next.Add(ft.period)
		}
	}
	return true
}
