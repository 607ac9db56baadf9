package controlplane

import "testing"

func pat(rows ...[2]bool) [][]bool {
	p := make([][]bool, len(rows))
	for i, r := range rows {
		p[i] = []bool{r[0], r[1]}
	}
	return p
}

func TestUnion(t *testing.T) {
	old := pat([2]bool{true, false}, [2]bool{false, false})
	new := pat([2]bool{false, true}, [2]bool{false, true})
	u := Union(nil, old, new)
	want := pat([2]bool{true, true}, [2]bool{false, true})
	for pe := range want {
		for k := range want[pe] {
			if u[pe][k] != want[pe][k] {
				t.Fatalf("union[%d][%d] = %v", pe, k, u[pe][k])
			}
		}
	}
	// Reuse must overwrite in place.
	u2 := Union(u, new, old)
	if &u2[0][0] != &u[0][0] {
		t.Fatal("union reallocated a correctly-shaped dst")
	}
}

func TestMigrationSequencerTwoWaves(t *testing.T) {
	old := pat([2]bool{true, false}, [2]bool{true, true})
	new := pat([2]bool{false, true}, [2]bool{true, false})
	m := NewMigrationSequencer(2, 2)
	if m.InFlight() || m.Want(0, 0) {
		t.Fatal("zero-value sequencer not idle")
	}
	m.Begin(old, new)
	if !m.InFlight() || m.Wave() != WaveActivate {
		t.Fatalf("wave = %d after Begin", m.Wave())
	}
	// Activation wave: union pattern.
	for _, c := range []struct {
		pe, k int
		want  bool
	}{{0, 0, true}, {0, 1, true}, {1, 0, true}, {1, 1, true}} {
		if got := m.Want(c.pe, c.k); got != c.want {
			t.Fatalf("wave 0 Want(%d,%d) = %v", c.pe, c.k, got)
		}
	}
	// Confirmations for slots that were already active do not advance.
	if m.Applied(1, 0, true) {
		t.Fatal("advanced on an unneeded confirmation")
	}
	// Wrong-polarity confirmation for the needed slot is ignored.
	if m.Applied(0, 1, false); m.Wave() != WaveActivate {
		t.Fatal("deactivation confirmation advanced the activation wave")
	}
	if !m.Applied(0, 1, true) || m.Wave() != WaveDeactivate {
		t.Fatalf("wave = %d after last activation confirmed", m.Wave())
	}
	// Deactivation wave: new pattern.
	if m.Want(0, 0) || !m.Want(0, 1) || !m.Want(1, 0) || m.Want(1, 1) {
		t.Fatal("wave 1 wants are not the new pattern")
	}
	if m.Applied(0, 0, false); !m.InFlight() {
		t.Fatal("migration completed with a deactivation outstanding")
	}
	if !m.Applied(1, 1, false) || m.InFlight() {
		t.Fatal("migration did not complete on the last deactivation")
	}
	// After completion Want keeps reporting the target.
	if m.Want(0, 0) || !m.Want(0, 1) {
		t.Fatal("post-migration wants are not the new pattern")
	}
	if m.Applied(0, 0, false) {
		t.Fatal("idle sequencer accepted a confirmation")
	}
}

func TestMigrationSequencerDegenerateWaves(t *testing.T) {
	// Pure activation: the deactivation wave is empty and completion
	// follows the last activation immediately.
	m := NewMigrationSequencer(1, 2)
	m.Begin(pat([2]bool{true, false}), pat([2]bool{true, true}))
	if m.Wave() != WaveActivate {
		t.Fatalf("wave = %d", m.Wave())
	}
	if !m.Applied(0, 1, true) || m.InFlight() {
		t.Fatal("pure-activation migration did not complete")
	}
	// Pure deactivation: the activation wave is skipped at Begin.
	m.Begin(pat([2]bool{true, true}), pat([2]bool{true, false}))
	if m.Wave() != WaveDeactivate {
		t.Fatalf("wave = %d, want immediate deactivation wave", m.Wave())
	}
	if m.Want(0, 1) {
		t.Fatal("deactivation wave still wants the old-only slot")
	}
	// Equal patterns: nothing in flight.
	m.Begin(pat([2]bool{true, false}), pat([2]bool{true, false}))
	if m.InFlight() {
		t.Fatal("no-op migration in flight")
	}
}

func TestMigrationSequencerSupersedeKeepsUnionSafe(t *testing.T) {
	// A second Begin during the activation wave must fold the in-flight
	// union into the new migration's old pattern: slot (0,1) — activated
	// for the superseded target — stays wanted until the deactivation wave
	// of the new migration.
	m := NewMigrationSequencer(1, 2)
	m.Begin(pat([2]bool{true, false}), pat([2]bool{false, true}))
	if !m.Want(0, 0) || !m.Want(0, 1) {
		t.Fatal("wave 0 wants are not the union")
	}
	m.Begin(pat([2]bool{true, false}), pat([2]bool{true, false}))
	if m.Wave() != WaveDeactivate {
		t.Fatalf("wave = %d after supersede with no new activations", m.Wave())
	}
	if !m.Want(0, 0) || m.Want(0, 1) {
		t.Fatal("superseding migration wants are wrong")
	}
	if !m.Applied(0, 1, false) || m.InFlight() {
		t.Fatal("superseding migration did not complete")
	}
}

func TestMigrationSequencerAbort(t *testing.T) {
	m := NewMigrationSequencer(1, 2)
	m.Begin(pat([2]bool{true, false}), pat([2]bool{false, true}))
	m.Abort()
	if m.InFlight() {
		t.Fatal("aborted migration still in flight")
	}
	// The target pattern survives the abort.
	if m.Want(0, 0) || !m.Want(0, 1) {
		t.Fatal("aborted sequencer forgot its target")
	}
	if m.Applied(0, 1, true) {
		t.Fatal("aborted sequencer accepted a confirmation")
	}
}
