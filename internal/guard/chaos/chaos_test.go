package chaos

import (
	"strings"
	"testing"
)

// The digests each (scenario, seed) of the 3-seed, 60-quantum soak
// reaches, one row per seed in grid order. Replay only proves a run
// repeats itself; these pins catch a change to what a soak does.
var (
	wantDigestsGuardOn = map[string][3]string{
		"phase-storm": {"93c8bd0472f61111", "79726e88bdef1326", "8738da35c1db1878"},
		"load-spike":  {"bc214e53e4256fd7", "d0f92ec93227afae", "ccf18951039c04b6"},
		"all-miss":    {"c38b78d2c410d0b7", "8fd128305e8e9b2e", "25fbec1f200029b4"},
		"corruption":  {"57a0403d264e56e0", "a33286b2f29fbcfc", "289c6a96d48108fd"},
	}
	wantDigestsGuardOff = map[string][3]string{
		"phase-storm": {"38269966193db8bb", "4bce7eb66254547e", "9809f1cc9b2a17ce"},
		"load-spike":  {"48d2761c2ebb22c2", "9919c4a006ac8658", "5f7bb49f69d279bc"},
		"all-miss":    {"5bcbbada2b5826d9", "d2315ba2564197c8", "e445d0f31fb824e7"},
		"corruption":  {"7ba8a9c6ee1f3419", "072c1993ee85126e", "fb79f7dae2bf88df"},
	}
)

func checkDigests(t *testing.T, rep Report, want map[string][3]string) {
	t.Helper()
	seen := map[string]int{}
	for _, r := range rep.Runs {
		i := seen[r.Scenario]
		seen[r.Scenario]++
		if got := r.Digest; got != want[r.Scenario][i] {
			t.Errorf("%s seed %d: digest %s, want %s", r.Scenario, r.Seed, got, want[r.Scenario][i])
		}
	}
}

// TestSoakGuardrailsOn is the acceptance criterion in miniature (the
// full 20-seed soak runs via cashsim -chaos): every scenario, a handful
// of seeds, zero invariant violations, byte-identical replay, pinned
// digests.
func TestSoakGuardrailsOn(t *testing.T) {
	rep, err := Run(Options{Seeds: 3, Quanta: 60, Guardrails: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3*len(Scenarios()) {
		t.Fatalf("ran %d seed-runs, want %d", len(rep.Runs), 3*len(Scenarios()))
	}
	checkDigests(t, rep, wantDigestsGuardOn)
	for _, r := range rep.Runs {
		if r.Panicked {
			t.Errorf("%s seed %d panicked", r.Scenario, r.Seed)
		}
		if !r.ReplayIdentical {
			t.Errorf("%s seed %d replay diverged", r.Scenario, r.Seed)
		}
		if len(r.Violations) > 0 {
			t.Errorf("%s seed %d violated invariants: %v", r.Scenario, r.Seed, r.Violations)
		}
	}
	if !rep.Passed() {
		t.Fatalf("soak failed:\n%s", rep.Summary())
	}
}

// TestSoakGuardrailsOffDemonstratesHazard: with the guardrails off, the
// corruption scenario must demonstrably violate the no-NaN invariant —
// if it stops doing so, the soak is no longer testing anything.
func TestSoakGuardrailsOffDemonstratesHazard(t *testing.T) {
	rep, err := Run(Options{Seeds: 3, Quanta: 60, Guardrails: false})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, wantDigestsGuardOff)
	violated := 0
	for _, r := range rep.Runs {
		if r.Panicked {
			t.Errorf("%s seed %d panicked (the stack must degrade, not die, even unguarded)", r.Scenario, r.Seed)
		}
		if r.Scenario == "corruption" && len(r.Violations) > 0 {
			violated++
		}
	}
	if violated == 0 {
		t.Fatal("guard-off corruption runs violated nothing — the guardrails have no demonstrable effect")
	}
}

// TestGuardTripsRecorded: the adversarial scenarios must actually
// exercise the guardrails; a soak whose guards never fire proves
// nothing.
func TestGuardTripsRecorded(t *testing.T) {
	rep, err := Run(Options{Seeds: 2, Quanta: 60, Guardrails: true})
	if err != nil {
		t.Fatal(err)
	}
	var trips int64
	for _, r := range rep.Runs {
		trips += r.Counters.Trips()
	}
	if trips == 0 {
		t.Fatal("no guardrail tripped across any scenario")
	}
}

func TestSummaryMentionsEveryScenario(t *testing.T) {
	rep, err := Run(Options{Seeds: 1, Quanta: 30, Guardrails: true})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, name := range Scenarios() {
		if !strings.Contains(s, name) {
			t.Errorf("summary omits scenario %q:\n%s", name, s)
		}
	}
}
