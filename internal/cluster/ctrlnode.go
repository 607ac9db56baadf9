package cluster

import (
	"sync"
	"time"

	"laar/internal/controlplane"
	"laar/internal/netx"
)

// ctrlNode is one controller process: its controlplane.Controller decides
// whether it leads, and while it does, commands every replica slot toward
// the target activation over the hosts' dialed connections. Everything
// protocol-critical lives in the controlplane kernel; this file is
// transport glue.
type ctrlNode struct {
	spec NodeSpec

	mu     sync.Mutex
	ctl    *controlplane.Controller
	cfg    int
	cfgSeq uint64

	// hostPeer is the current inbound connection of each host (commands
	// ride it in reverse); hostInc the host's last known incarnation.
	hostPeer map[int]*netx.Peer
	hostInc  map[int]uint64

	// peers[j] is the one-way gossip connection to controller j (nil for
	// self): beats flow out on it, the peer's beats arrive on our server.
	peers []*netx.Conn
}

func newCtrlNode(spec NodeSpec) *ctrlNode {
	now := time.Now().UnixNano()
	tickNs := (time.Duration(spec.TickMs) * time.Millisecond).Nanoseconds()
	ttlNs := (time.Duration(spec.LeaseTTLMs) * time.Millisecond).Nanoseconds()
	c := &ctrlNode{
		spec: spec,
		ctl: controlplane.NewController(
			controlplane.NewLeaseElector(spec.Index, spec.Top.Controllers, ttlNs, now),
			controlplane.NewCommandSequencer(spec.Top.PEs, spec.Top.Replicas, controlplane.RetryPolicy{Min: 2 * tickNs, Max: 16 * tickNs}),
			false),
		cfg:      1, // default target: every replica active
		hostPeer: make(map[int]*netx.Peer),
		hostInc:  make(map[int]uint64),
		peers:    make([]*netx.Conn, spec.Top.Controllers),
	}
	// A restarted controller lost its elector state; the floor keeps it
	// from reclaiming an epoch some incarnation of the cluster already
	// held.
	c.ctl.Lease.Observe(spec.BallotFloor)
	for j := range c.peers {
		if j == spec.Index || j >= len(spec.CtrlAddrs) || spec.CtrlAddrs[j] == "" {
			continue
		}
		c.peers[j] = netx.Dial(spec.CtrlAddrs[j], connOptions(spec, int64(spec.Index)*31+int64(j)))
	}
	return c
}

func (c *ctrlNode) handle(p *netx.Peer, typ byte, payload []byte) {
	switch typ {
	case MTHello:
		var h Hello
		if decode(payload, &h) != nil || h.Kind != "host" {
			return
		}
		p.Tag.Store(h.Index)
		c.mu.Lock()
		c.hostPeer[h.Index] = p
		c.noteIncarnation(h.Index, h.Incarnation)
		c.mu.Unlock()
	case MTBeat:
		var b Beat
		if decode(payload, &b) != nil {
			return
		}
		c.mu.Lock()
		c.hostPeer[b.Host] = p
		c.noteIncarnation(b.Host, b.Incarnation)
		c.mu.Unlock()
	case MTAck:
		var a AckMsg
		if decode(payload, &a) != nil ||
			a.PE < 0 || a.PE >= c.spec.Top.PEs || a.K < 0 || a.K >= c.spec.Top.Replicas {
			return
		}
		c.mu.Lock()
		if a.Applied {
			// AckedMatch: acks arrive asynchronously here, so an ack must
			// name the in-flight command exactly — a host's re-ack of a
			// duplicate carries the last applied sequence and must not
			// complete a newer command still in flight.
			if c.ctl.Lease.Leading() {
				c.ctl.Seq.AckedMatch(a.PE, a.K, a.Epoch, a.Seq)
			}
		} else {
			// NACK: a replica has adopted a higher ballot. Observing it
			// makes the next Evaluate re-claim above it.
			c.ctl.Lease.Observe(a.Adopted)
		}
		c.mu.Unlock()
	case MTCtrlBeat:
		var b CtrlBeat
		if decode(payload, &b) != nil {
			return
		}
		c.mu.Lock()
		if b.ID >= 0 && b.ID < c.spec.Top.Controllers {
			c.ctl.Lease.HearPeer(b.ID, time.Now().UnixNano())
			c.ctl.Lease.Observe(b.MaxSeen)
			if b.CfgSeq > c.cfgSeq {
				c.cfg, c.cfgSeq = b.Cfg, b.CfgSeq
			}
		}
		c.mu.Unlock()
	case MTTarget:
		var t Target
		if decode(payload, &t) != nil {
			return
		}
		c.mu.Lock()
		if t.CfgSeq == 0 {
			t.CfgSeq = c.cfgSeq + 1
		}
		if t.CfgSeq > c.cfgSeq {
			c.cfg, c.cfgSeq = t.Cfg, t.CfgSeq
		}
		c.mu.Unlock()
	}
}

// noteIncarnation (mu held) resets the sequencer slots of a host whose
// process was replaced: the new process's proxy state starts from zero,
// so acks granted to the old incarnation describe nothing.
func (c *ctrlNode) noteIncarnation(host int, inc uint64) {
	prev, known := c.hostInc[host]
	if known && prev == inc {
		return
	}
	c.hostInc[host] = inc
	if known {
		c.spec.Top.Slots(host, func(pe, k int) { c.ctl.Seq.ResetSlot(pe, k) })
	}
}

// peerGone forgets a host's inbound connection when it drops, so the
// sequencer fails fast to the backoff path instead of writing into a
// dead peer.
func (c *ctrlNode) peerGone(p *netx.Peer) {
	h, ok := p.Tag.Load().(int)
	if !ok {
		return
	}
	c.mu.Lock()
	if c.hostPeer[h] == p {
		delete(c.hostPeer, h)
	}
	c.mu.Unlock()
}

func (c *ctrlNode) tick(now time.Time) {
	n := now.UnixNano()
	c.mu.Lock()
	c.ctl.Evaluate(n, nil, c.cfg) // unstaged: a claim plans no migration

	type outCmd struct {
		peer *netx.Peer
		msg  CommandMsg
	}
	var out []outCmd
	if c.ctl.Lease.Leading() {
		top := c.spec.Top
		for pe := 0; pe < top.PEs; pe++ {
			for k := 0; k < top.Replicas; k++ {
				cmd, send, _ := c.ctl.Command(pe, k, WantActive(c.cfg, k), n)
				if !send {
					continue
				}
				peer := c.hostPeer[top.HostOf(pe, k)]
				if peer != nil {
					out = append(out, outCmd{peer, CommandMsg{Epoch: cmd.Epoch, Seq: cmd.Seq, PE: pe, K: k, Active: cmd.Active}})
				}
				// Sent or not, schedule the retransmission; an ack
				// cancels it, anything else retries with backoff.
				c.ctl.Seq.Failed(pe, k, n)
			}
		}
	}
	beat := CtrlBeat{
		ID:      c.spec.Index,
		MaxSeen: c.ctl.Lease.MaxSeen(),
		Epoch:   c.ctl.Lease.Epoch(),
		Leading: c.ctl.Lease.Leading(),
		Cfg:     c.cfg,
		CfgSeq:  c.cfgSeq,
	}
	peers := c.peers
	c.mu.Unlock()

	// Network writes happen outside the lock: a slow or severed link
	// must not stall command handling.
	for _, o := range out {
		o.peer.Send(MTCommand, encode(o.msg))
	}
	b := encode(beat)
	for _, pc := range peers {
		if pc != nil {
			pc.Send(MTCtrlBeat, b)
		}
	}
}

func (c *ctrlNode) stats() StatsResp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return StatsResp{Ctrl: &CtrlStats{
		ID:      c.spec.Index,
		Leading: c.ctl.Lease.Leading(),
		Epoch:   c.ctl.Lease.Epoch(),
		MaxSeen: c.ctl.Lease.MaxSeen(),
		Pending: c.ctl.Seq.Pending(),
		Cfg:     c.cfg,
		CfgSeq:  c.cfgSeq,
	}}
}

func (c *ctrlNode) close() {
	for _, pc := range c.peers {
		if pc != nil {
			pc.Close()
		}
	}
}
