package controlplane

// ballotIDBits is the width of the instance-id field in a packed ballot.
const ballotIDBits = 8

// MaxControllers is the largest control-plane size the ballot encoding
// carries: the low ballotIDBits bits hold the claiming instance's id.
const MaxControllers = 1 << ballotIDBits

// PackBallot packs a claim round and an instance id into one ballot epoch:
// (round << 8) | id. Rounds order ballots globally; the id field makes
// concurrent claims by different instances distinct, so no two instances
// can ever claim the same epoch.
func PackBallot(round uint64, id int) uint64 {
	return round<<ballotIDBits | uint64(id)
}

// BallotRound extracts the claim round of a ballot.
func BallotRound(ballot uint64) uint64 { return ballot >> ballotIDBits }

// BallotHolder extracts the claiming instance's id from a ballot.
func BallotHolder(ballot uint64) int { return int(ballot & (MaxControllers - 1)) }

// NextBallot returns instance id's lowest ballot strictly above every
// ballot in seen — the claim rule that lets replicas arbitrate concurrent
// leaders by epoch alone.
func NextBallot(seen uint64, id int) uint64 {
	return PackBallot(BallotRound(seen)+1, id)
}

// LeaseAction is a LeaseElector decision.
type LeaseAction int

const (
	// LeaseHold: no transition — keep the current role.
	LeaseHold LeaseAction = iota
	// LeaseClaim: take (or re-take) the lease under a fresh ballot (see
	// Controller.Claim).
	LeaseClaim
	// LeaseYield: a lower-id peer is fresh — step down (see
	// Controller.StepDown).
	LeaseYield
)

// LeaseElector is the decentralized lease machine of one controller
// instance: the lowest-id instance heard fresh within the TTL holds the
// lease, claims carry ballots strictly above everything the claimant has
// seen, and a leader that learns of a higher ballot re-claims above it.
// Time is int64 in whatever unit the caller uses consistently (the live
// runtime feeds unix nanoseconds, models can feed abstract steps).
type LeaseElector struct {
	id        int
	ttl       int64
	lastHeard []int64
	epoch     uint64
	maxSeen   uint64
	leading   bool
}

// NewLeaseElector builds the elector of instance id among peers total
// instances. Every peer starts as heard at now, so standbys do not contest
// an initial grant before the first heartbeat round.
func NewLeaseElector(id, peers int, ttl, now int64) *LeaseElector {
	e := &LeaseElector{id: id, ttl: ttl, lastHeard: make([]int64, peers)}
	for j := range e.lastHeard {
		e.lastHeard[j] = now
	}
	return e
}

// HearPeer records peer j's heartbeat at time at (already aged by any
// transport delay). The latest report wins, mirroring a mailbox drain.
func (e *LeaseElector) HearPeer(j int, at int64) { e.lastHeard[j] = at }

// Observe lifts the highest-ballot watermark — peer gossip and command
// NACKs feed it.
func (e *LeaseElector) Observe(ballot uint64) {
	if ballot > e.maxSeen {
		e.maxSeen = ballot
	}
}

// Epoch returns the ballot of the latest claim.
func (e *LeaseElector) Epoch() uint64 { return e.epoch }

// MaxSeen returns the highest ballot observed anywhere.
func (e *LeaseElector) MaxSeen() uint64 { return e.maxSeen }

// Leading reports whether the instance currently believes it holds the
// lease.
func (e *LeaseElector) Leading() bool { return e.leading }

// Evaluate applies the lease rule at time now: yield when a lower-id peer
// was heard within the TTL, claim when none was, and re-claim when leading
// under a ballot below the highest seen (a peer led while this instance
// was down or cut off; re-claiming above it wins its followers back).
func (e *LeaseElector) Evaluate(now int64) LeaseAction {
	deadline := now - e.ttl
	lowerFresh := false
	for j := 0; j < e.id; j++ {
		if e.lastHeard[j] >= deadline {
			lowerFresh = true
			break
		}
	}
	switch {
	case lowerFresh && e.leading:
		return LeaseYield
	case !lowerFresh && !e.leading:
		return LeaseClaim
	case e.leading && e.maxSeen > e.epoch:
		return LeaseClaim
	}
	return LeaseHold
}

// Claim takes the lease under a fresh ballot strictly above every ballot
// seen, and returns it.
func (e *LeaseElector) Claim() uint64 {
	e.epoch = NextBallot(e.maxSeen, e.id)
	e.maxSeen = e.epoch
	e.leading = true
	return e.epoch
}

// StepDown drops the lease.
func (e *LeaseElector) StepDown() { e.leading = false }

// LowestAlive returns the lowest index with up[i] true, or -1 when none
// is — the same lowest-id-wins rule as the lease, in the instantaneous-
// knowledge form a single-process runtime (the engine) can use directly.
func LowestAlive(up []bool) int {
	for i, u := range up {
		if u {
			return i
		}
	}
	return -1
}
