package controlplane

// Live reconfiguration: the pure wave machinery that drives a strategy
// diff (two per-(PE, replica) activation patterns) so that every
// intermediate state preserves the internal-completeness floor.
//
// The ordering invariant is two global waves: first every activation, then
// every deactivation. Between the waves the live pattern is the union of
// the old and new patterns. Under the pessimistic failure model the FIC of
// a configuration is monotone in the activation pattern — Φ of a pair only
// flips 0 → 1 when both replicas become active, and a Φ flip only adds
// tuples to every downstream Δ̂ term (selectivities are non-negative) — so
// IC(old ∪ new) ≥ max(IC(old), IC(new)) ≥ min(IC(old), IC(new)): no
// intermediate step can dip below the weaker endpoint, which is the
// ic-floor-during-migration invariant the chaos and model checkers verify.
// Activate-before-deactivate per PE follows a fortiori from the wave order.

// Union writes old ∪ new into dst (allocating when dst is nil or misshaped)
// and returns it: the pattern live between the two waves.
func Union(dst, old, new [][]bool) [][]bool {
	if len(dst) != len(new) {
		dst = make([][]bool, len(new))
	}
	for pe := range new {
		if len(dst[pe]) != len(new[pe]) {
			dst[pe] = make([]bool, len(new[pe]))
		}
		for k := range new[pe] {
			dst[pe][k] = old[pe][k] || new[pe][k]
		}
	}
	return dst
}

// Migration waves.
const (
	// WaveIdle: no migration in flight.
	WaveIdle = -1
	// WaveActivate: the union pattern is being established — every slot the
	// new pattern adds is commanded active; nothing is deactivated yet.
	WaveActivate = 0
	// WaveDeactivate: every new-pattern slot is confirmed active; the slots
	// only the old pattern used are commanded inactive.
	WaveDeactivate = 1
)

// MigrationSequencer is the leader-side wave machine of the IC-safe
// migration protocol. It owns no transport: the caller keeps driving its
// CommandSequencer from Want (the activation state each slot should have
// right now) and feeds confirmed state changes back through Applied; the
// sequencer advances from the activation wave to the deactivation wave
// only when every slot the new pattern adds has been confirmed active, so
// at no point is a still-needed slot down. A sequencer is not safe for
// concurrent use. The zero value is idle; Want before any Begin reports
// false for every slot.
type MigrationSequencer struct {
	numPEs, k int
	old       []bool // pattern before the migration, flattened pe*k+k
	est       []bool // slots of old known to be active
	target    []bool // pattern the migration establishes
	need      []bool // slots awaiting confirmation in the current wave
	needN     int
	wave      int
}

// NewMigrationSequencer builds a sequencer over numPEs × k replica slots.
func NewMigrationSequencer(numPEs, k int) *MigrationSequencer {
	n := numPEs * k
	return &MigrationSequencer{
		numPEs: numPEs,
		k:      k,
		old:    make([]bool, n),
		est:    make([]bool, n),
		target: make([]bool, n),
		need:   make([]bool, n),
		wave:   WaveIdle,
	}
}

// Begin starts migrating from pattern old to pattern new (both [pe][k]).
// From idle, every slot of old is taken to be active. A migration already
// in flight is superseded instead: its current union becomes the old
// pattern of the new migration, so no still-needed slot is ever commanded
// down by the handover, but only the slots it has confirmed active count
// as active — a slot whose activation was still unconfirmed is awaited
// again if the new pattern needs it. Begin with equal patterns completes
// immediately (InFlight stays false, Want reports the new pattern).
func (m *MigrationSequencer) Begin(old, new [][]bool) {
	for pe := 0; pe < m.numPEs; pe++ {
		for k := 0; k < m.k; k++ {
			i := pe*m.k + k
			o, e := old[pe][k], old[pe][k]
			switch m.wave {
			case WaveActivate:
				o = o || m.target[i]
				e = m.est[i] || (m.target[i] && !m.need[i])
			case WaveDeactivate:
				e = m.target[i]
			}
			m.old[i], m.est[i] = o, e
			m.target[i] = new[pe][k]
		}
	}
	m.startWave(WaveActivate)
}

// startWave enters the given wave, collecting the slots whose confirmation
// it waits on, and falls through completed waves immediately.
func (m *MigrationSequencer) startWave(wave int) {
	for ; wave <= WaveDeactivate; wave++ {
		m.needN = 0
		for i := range m.need {
			var n bool
			if wave == WaveActivate {
				n = m.target[i] && !m.est[i]
			} else {
				n = m.old[i] && !m.target[i]
			}
			m.need[i] = n
			if n {
				m.needN++
			}
		}
		if m.needN > 0 {
			m.wave = wave
			return
		}
	}
	m.wave = WaveIdle
}

// InFlight reports whether a migration is between its first flip and its
// last confirmation.
func (m *MigrationSequencer) InFlight() bool { return m.wave != WaveIdle }

// Wave returns the current wave (WaveIdle when no migration is in flight).
func (m *MigrationSequencer) Wave() int { return m.wave }

// Want returns the activation state slot (pe, k) should have right now:
// the old ∪ new union during the activation wave, the new pattern once the
// deactivation wave starts (and after the migration completes).
func (m *MigrationSequencer) Want(pe, k int) bool {
	i := pe*m.k + k
	if m.wave == WaveActivate {
		return m.target[i] || m.old[i]
	}
	return m.target[i]
}

// Applied reports a confirmed activation-state change (an acknowledged
// command). When the last awaited confirmation of the activation wave
// arrives, the sequencer advances to the deactivation wave — Want flips
// for the old-only slots — and when the deactivation wave drains, the
// migration completes. It returns true when this call advanced a wave.
func (m *MigrationSequencer) Applied(pe, k int, active bool) bool {
	if m.wave == WaveIdle {
		return false
	}
	i := pe*m.k + k
	if !m.need[i] {
		return false
	}
	if active != (m.wave == WaveActivate) {
		return false
	}
	m.need[i] = false
	m.needN--
	if m.needN > 0 {
		return false
	}
	m.startWave(m.wave + 1)
	return true
}

// Abort drops an in-flight migration without forgetting its target: Want
// keeps reporting the new pattern. A deposed leader calls it on step-down —
// the successor re-plans from its own applied view, and the IC floor is
// safe because the union pattern this leader may have left behind
// dominates both endpoints.
func (m *MigrationSequencer) Abort() {
	m.wave = WaveIdle
	m.needN = 0
	for i := range m.need {
		m.need[i] = false
	}
}
