package soak

import (
	"testing"
)

// TestChaosSoak is the acceptance test for cashd's crash-safety story:
// seeded wire faults on every connection, two kill + restart cycles
// per scenario, and a clean replay that must reach the identical
// digest. Kept small enough for every CI run; the cashsim -chaos
// daemon scenario runs the full default shape.
func TestChaosSoak(t *testing.T) {
	opts := Options{
		Seeds:          2,
		Tenants:        4,
		CellsPerTenant: 3,
		Kills:          2,
		Dir:            t.TempDir(),
	}
	if testing.Short() {
		opts.Seeds = 1
		opts.Kills = 1
	}
	report, err := Run(opts)
	if err != nil {
		t.Fatalf("chaos soak: %v", err)
	}
	if !report.Passed() {
		t.Fatalf("chaos soak failed:\n%s", report.Text())
	}
	if len(report.Runs) != opts.Seeds {
		t.Fatalf("ran %d seeds, want %d", len(report.Runs), opts.Seeds)
	}
	// The digest is kill- and fault-independent, so each seed's pin
	// holds in -short mode too; a change here means the soak (or the
	// daemon's state machine) now does something different.
	want := []string{"ee8b76044c72ac0d", "5b6427359d3ef566"}
	var kills, cells int
	for i, r := range report.Runs {
		if r.Digest != want[i] {
			t.Errorf("seed %d: digest %s, want %s", r.Seed, r.Digest, want[i])
		}
		if r.Counters.ConsumedNanos <= 0 {
			t.Errorf("seed %d reconciled %d nanos", r.Seed, r.Counters.ConsumedNanos)
		}
		kills += r.Counters.Kills
		cells += r.Counters.CellsLanded
	}
	if kills != opts.Seeds*opts.Kills {
		t.Fatalf("executed %d kills, want %d", kills, opts.Seeds*opts.Kills)
	}
	if wantCells := opts.Seeds * opts.Tenants * opts.CellsPerTenant; cells != wantCells {
		t.Fatalf("landed %d cells, want %d", cells, wantCells)
	}
}

func TestSoakRejectsBadShape(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("soak ran without a scratch directory")
	}
	if _, err := Run(Options{Dir: t.TempDir(), Tenants: -1}); err == nil {
		t.Fatal("soak accepted a negative tenant count")
	}
}
