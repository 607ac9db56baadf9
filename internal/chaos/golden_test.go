package chaos

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// modelGolden is one pinned chaos.Model outcome. A run that departs from
// testdata/model_golden.json is a behaviour change of the model's lease,
// command or migration decisions.
type modelGolden struct {
	Class           string   `json:"class"`
	Seed            int64    `json:"seed"`
	Epochs          []uint64 `json:"epochs"`
	Reclaims        int      `json:"reclaims"`
	Leader          int      `json:"leader"`
	Epoch           uint64   `json:"epoch"`
	PendingCommands int      `json:"pending"`
	AppliedConfig   int      `json:"applied"`
	Migrations      int      `json:"migrations"`
	MigrationCycles int      `json:"cycles"`
	Steps           int      `json:"steps"`
	StepViolations  []string `json:"violations"`
}

// TestModelGolden replays every scenario class × seeds 1–20 on the model
// and compares the lease, command and migration outcome with the pinned
// values.
func TestModelGolden(t *testing.T) {
	blob, err := os.ReadFile("testdata/model_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []modelGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if n := len(Classes()) * 20; len(want) != n {
		t.Fatalf("golden file has %d runs, want %d", len(want), n)
	}
	for _, w := range want {
		class, err := ParseClass(w.Class)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := Model(Scenario{Seed: w.Seed, Class: class})
		if err != nil {
			t.Fatalf("%s seed %d: %v", w.Class, w.Seed, err)
		}
		got := modelGolden{
			Class: w.Class, Seed: w.Seed, Epochs: mr.Epochs, Reclaims: mr.Reclaims,
			Leader: mr.Leader, Epoch: mr.Epoch, PendingCommands: mr.PendingCommands,
			AppliedConfig: mr.AppliedConfig, Migrations: mr.Migrations,
			MigrationCycles: mr.MigrationCycles, Steps: mr.Steps, StepViolations: []string{},
		}
		for _, v := range mr.StepViolations {
			got.StepViolations = append(got.StepViolations, v.Invariant)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s seed %d diverged from the golden run:\n got %+v\nwant %+v", w.Class, w.Seed, got, w)
		}
	}
}
