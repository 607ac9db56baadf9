package clock

import (
	"testing"
	"time"
)

// TestFakeFiresInDeadlineOrder interleaves After waiters and tickers on one
// fake clock: each fires at its own deadline, Waiters counts only pending
// After channels, a stopped ticker goes quiet, and an undrained ticker
// coalesces its missed ticks.
func TestFakeFiresInDeadlineOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := NewFake(t0)
	if got := <-c.After(0); !got.Equal(t0) {
		t.Fatalf("already-due After fired at %v", got)
	}
	tk := c.NewTicker(2 * time.Second)
	w3 := c.After(3 * time.Second)
	if c.Waiters() != 1 {
		t.Fatalf("Waiters = %d, want 1", c.Waiters())
	}
	c.Advance(2500 * time.Millisecond)
	if got := <-tk.C; !got.Equal(t0.Add(2 * time.Second)) {
		t.Fatalf("tick at %v, want 2s", got)
	}
	select {
	case <-w3:
		t.Fatal("3s waiter fired at 2.5s")
	default:
	}
	c.Advance(time.Second)
	if got := <-w3; !got.Equal(t0.Add(3 * time.Second)) {
		t.Fatalf("waiter fired at %v, want 3s", got)
	}
	if c.Waiters() != 0 || !c.Now().Equal(t0.Add(3500*time.Millisecond)) {
		t.Fatalf("Waiters = %d, Now = %v after the sweep", c.Waiters(), c.Now())
	}
	// Ticks at 4s, 6s and 8s arrive undrained: one coalesced tick remains.
	c.Advance(5 * time.Second)
	if got := <-tk.C; !got.Equal(t0.Add(4 * time.Second)) {
		t.Fatalf("coalesced tick at %v, want the first missed one (4s)", got)
	}
	select {
	case <-tk.C:
		t.Fatal("missed ticks were queued instead of coalesced")
	default:
	}
	tk.Stop()
	c.Advance(10 * time.Second)
	select {
	case <-tk.C:
		t.Fatal("stopped ticker ticked")
	default:
	}
}
