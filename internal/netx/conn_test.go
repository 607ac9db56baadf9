package netx

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"laar/internal/clock"
)

func recvTime(t *testing.T, ch <-chan time.Time) time.Time {
	t.Helper()
	select {
	case at := <-ch:
		return at
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a dial attempt")
		return time.Time{}
	}
}

// waitParked spins until the maintainer has registered its backoff wait
// on the fake clock, so an Advance cannot race past the registration.
func waitParked(t *testing.T, clk *clock.Fake) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintainer never parked on the fake clock")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnBackoffTiming drives the reconnect loop on a fake clock against
// a dialer that always fails and asserts the exact capped-exponential
// redial schedule.
func TestConnBackoffTiming(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	attempts := make(chan time.Time, 64)
	c := Dial("nowhere", ConnOptions{
		Clock: clk,
		Dial: func(string, time.Duration) (net.Conn, error) {
			attempts <- clk.Now()
			return nil, errors.New("refused")
		},
		Backoff:     BackoffPolicy{Min: 100 * time.Millisecond, Max: 400 * time.Millisecond},
		StableAfter: time.Hour,
	})
	defer c.Close()

	prev := recvTime(t, attempts) // first attempt fires immediately
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, // capped at Max
	} {
		waitParked(t, clk)
		clk.Advance(want - time.Millisecond)
		select {
		case at := <-attempts:
			t.Fatalf("attempt %d fired %v early (at %v)", i+2, time.Millisecond, at)
		default:
		}
		clk.Advance(time.Millisecond)
		at := recvTime(t, attempts)
		if got := at.Sub(prev); got != want {
			t.Fatalf("attempt %d: waited %v, want %v", i+2, got, want)
		}
		prev = at
	}
	if s := c.Stats(); s.DialFailures < 5 || s.Dials != 0 {
		t.Fatalf("stats = %+v, want >=5 failures and 0 dials", s)
	}
}

// TestConnStableResetsBackoff checks the anti-storm rule: a connection
// that survives past StableAfter resets the schedule (immediate redial),
// while one that dies young pays the Min wait again.
func TestConnStableResetsBackoff(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	attempts := make(chan time.Time, 64)
	connected := make(chan struct{}, 16)
	var mu sync.Mutex
	var server net.Conn
	c := Dial("pipe", ConnOptions{
		Clock: clk,
		Dial: func(string, time.Duration) (net.Conn, error) {
			a, b := net.Pipe()
			mu.Lock()
			server = b
			mu.Unlock()
			attempts <- clk.Now()
			return a, nil
		},
		OnConnect:   func(*Conn) { connected <- struct{}{} },
		Backoff:     BackoffPolicy{Min: 100 * time.Millisecond, Max: 800 * time.Millisecond},
		StableAfter: 300 * time.Millisecond,
	})
	defer c.Close()

	closeServer := func() {
		mu.Lock()
		server.Close()
		mu.Unlock()
	}

	first := recvTime(t, attempts)
	<-connected
	clk.Advance(400 * time.Millisecond) // age 400ms >= StableAfter
	closeServer()
	second := recvTime(t, attempts) // redial with no clock advance: reset fired
	if got := second.Sub(first); got != 400*time.Millisecond {
		t.Fatalf("stable drop redialed after %v of fake time, want 400ms (immediate)", got)
	}

	<-connected
	closeServer() // dies at age 0: young, must wait Min again
	waitParked(t, clk)
	clk.Advance(100 * time.Millisecond)
	third := recvTime(t, attempts)
	if got := third.Sub(second); got != 100*time.Millisecond {
		t.Fatalf("young drop redialed after %v, want Min (100ms)", got)
	}
}

// TestConnReconnectOverTCP exercises the full loop against a real server:
// echo, server-side drop, automatic reconnect, echo again.
func TestConnReconnectOverTCP(t *testing.T) {
	var peerMu sync.Mutex
	var last *Peer
	srv, err := Serve("127.0.0.1:0", ServerOptions{
		Handler: func(p *Peer, typ byte, payload []byte) {
			peerMu.Lock()
			last = p
			peerMu.Unlock()
			p.Send(typ, payload)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	echoes := make(chan string, 16)
	c := Dial(srv.Addr(), ConnOptions{
		OnMessage: func(typ byte, payload []byte) { echoes <- string(payload) },
		Backoff:   BackoffPolicy{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	defer c.Close()

	waitCond(t, "initial connect", c.Connected)
	if err := c.Send(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got := <-echoes; got != "one" {
		t.Fatalf("echo = %q, want %q", got, "one")
	}

	peerMu.Lock()
	last.Close()
	peerMu.Unlock()
	waitCond(t, "reconnect", func() bool { return c.Stats().Dials >= 2 && c.Connected() })

	// The new connection must carry traffic again.
	waitCond(t, "echo after reconnect", func() bool {
		if err := c.Send(1, []byte("two")); err != nil {
			return false
		}
		select {
		case got := <-echoes:
			return got == "two"
		case <-time.After(50 * time.Millisecond):
			return false
		}
	})
}

func TestConnSendWhileDown(t *testing.T) {
	c := Dial("127.0.0.1:1", ConnOptions{ // reserved port: dial fails fast
		DialTimeout: 50 * time.Millisecond,
		Backoff:     BackoffPolicy{Min: time.Hour, Max: time.Hour},
	})
	defer c.Close()
	if err := c.Send(1, []byte("x")); err != ErrNotConnected {
		t.Fatalf("Send while down = %v, want ErrNotConnected", err)
	}
	if err := c.Send(TypePing, nil); err != ErrReservedType {
		t.Fatalf("Send(reserved) = %v, want ErrReservedType", err)
	}
}

// TestConnKeepalive checks that ping/pong keeps an idle connection alive
// past several read-deadline windows and stays invisible to the frame
// counters.
func TestConnKeepalive(t *testing.T) {
	apps := 0
	srv, err := Serve("127.0.0.1:0", ServerOptions{
		Handler: func(p *Peer, typ byte, payload []byte) { apps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(srv.Addr(), ConnOptions{PingEvery: 10 * time.Millisecond})
	defer c.Close()
	waitCond(t, "connect", c.Connected)
	time.Sleep(120 * time.Millisecond) // 12 ping intervals, 4 deadline windows
	s := c.Stats()
	if !s.Connected || s.Drops != 0 {
		t.Fatalf("keepalive failed to hold the connection: %+v", s)
	}
	if s.FramesSent != 0 || apps != 0 {
		t.Fatalf("keepalive leaked into app counters: sent=%d handled=%d", s.FramesSent, apps)
	}
}

func TestServerIdleTimeoutDropsSilentPeer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerOptions{IdleTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("silent peer was not dropped")
	}
}
